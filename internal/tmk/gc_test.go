package tmk

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// testNotice builds the notice closeInterval would for writer proc's
// interval, closed at vector time vc, that modified pages (ascending),
// of which full were written whole. The diffs carry no data.
func testNotice(proc int, interval int32, vc VC, pages []vm.PageID, full ...vm.PageID) *Notice {
	nt := &Notice{Proc: proc, Interval: interval, VC: vc, vcSum: vc.Sum()}
	for _, p := range pages {
		sd := storedDiff{nt: nt, page: p, full: slices.Contains(full, p)}
		if sd.full {
			nt.nFull++
		}
		nt.diffs = append(nt.diffs, sd)
	}
	return nt
}

func TestPruneSuperseded(t *testing.T) {
	page := vm.PageID(3)
	older := testNotice(0, 1, VC{1, 0}, []vm.PageID{page})
	full := testNotice(1, 1, VC{1, 1}, []vm.PageID{page}, page)
	concurrent := testNotice(0, 2, VC{2, 0}, []vm.PageID{page})

	got := pruneSuperseded([]*Notice{older, full, concurrent}, page)
	if len(got) != 2 {
		t.Fatalf("pruned to %d notices, want 2 (full + concurrent)", len(got))
	}
	for _, nt := range got {
		if nt == older {
			t.Fatal("superseded notice not pruned")
		}
	}
	// A full notice for a different page must not prune.
	otherPage := testNotice(1, 1, VC{1, 1}, []vm.PageID{page, 9}, 9)
	got = pruneSuperseded([]*Notice{older, otherPage}, page)
	if len(got) != 2 {
		t.Fatalf("notice pruned by a full write of a different page")
	}
}

func TestNoticeIsFull(t *testing.T) {
	nt := testNotice(0, 1, VC{1}, []vm.PageID{1, 2, 3, 7}, 2, 7)
	for page, want := range map[vm.PageID]bool{0: false, 1: false, 2: true, 3: false, 5: false, 7: true, 8: false} {
		if nt.IsFull(page) != want {
			t.Errorf("IsFull(%d) = %v, want %v", page, !want, want)
		}
	}
}

func TestLockFairnessAndQueueing(t *testing.T) {
	// Many procs contend; every increment must survive and the lock must
	// serialize (total == np*iters). Also exercises queue handoff.
	const np = 8
	const iters = 3
	d, addr := harness(t, np, 2)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for i := 0; i < iters; i++ {
			n.AcquireLock(0)
			n.Space().WriteF64(addr, n.Space().ReadF64(addr)+1)
			n.ReleaseLock(0)
			n.AcquireLock(5) // second lock, different manager
			n.Space().WriteF64(addr+8, n.Space().ReadF64(addr+8)+2)
			n.ReleaseLock(5)
		}
		n.Barrier(1)
		if got := n.Space().ReadF64(addr); got != np*iters {
			t.Errorf("proc %d: lock-0 counter %v", p.ID(), got)
		}
		if got := n.Space().ReadF64(addr + 8); got != 2*np*iters {
			t.Errorf("proc %d: lock-5 counter %v", p.ID(), got)
		}
		n.Barrier(2)
	})
	cats := d.cluster.Stats.Categories()
	if cats["tmk.lock"].Messages == 0 {
		t.Fatal("lock traffic not recorded")
	}
}

func TestLocksComposeWithBarriers(t *testing.T) {
	// Alternating lock-protected updates and barrier-phase reads.
	const np = 4
	d, addr := harness(t, np, 8)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for round := 0; round < 3; round++ {
			n.AcquireLock(1)
			v := n.Space().ReadF64(addr)
			n.Space().WriteF64(addr, v+1)
			n.ReleaseLock(1)
			n.Barrier(10)
			want := float64((round + 1) * np)
			if got := n.Space().ReadF64(addr); got != want {
				t.Errorf("proc %d round %d: %v want %v", p.ID(), round, got, want)
				return
			}
			n.Barrier(11)
		}
	})
}

func TestDiffRequestRangeSemantics(t *testing.T) {
	// A reader that skipped several epochs must receive exactly the
	// missing intervals in one exchange per writer.
	d, addr := harness(t, 2, 128)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for e := 0; e < 4; e++ {
			if p.ID() == 0 {
				n.Space().WriteF64(addr+vm.Addr(8*e), float64(e+1))
			}
			n.Barrier(1)
		}
		if p.ID() == 1 {
			before := n.DiffsApplied
			_ = n.Space().ReadF64(addr) // one fault, all four diffs
			if n.DiffsApplied-before != 4 {
				t.Errorf("applied %d diffs, want 4", n.DiffsApplied-before)
			}
		}
		n.Barrier(2)
	})
	cats := d.cluster.Stats.Categories()
	if cats["tmk.diff"].Messages != 2 {
		t.Errorf("range fetch used %d messages, want 2", cats["tmk.diff"].Messages)
	}
}

func TestWireDiffBytes(t *testing.T) {
	sd := storedDiff{nt: &Notice{VC: NewVC(4)}, dataB: 5}
	if sd.wireBytes() != 16+16+5 {
		t.Fatalf("wireBytes = %d", sd.wireBytes())
	}
}

func TestSortDiffsCausalOrder(t *testing.T) {
	mk := func(page vm.PageID, proc int, interval int32, vc VC) *storedDiff {
		return &testNotice(proc, interval, vc, []vm.PageID{page}).diffs[0]
	}
	ds := []*storedDiff{
		mk(7, 1, 2, VC{0, 2}),
		mk(9, 0, 1, VC{1, 0}),
		mk(7, 0, 1, VC{1, 0}),
		mk(7, 0, 2, VC{2, 2}),
		mk(7, 1, 1, VC{0, 1}),
	}
	slices.SortFunc(ds, compareCausal)
	// Page first; within page 7 Sum-ordered, {1,0} and {0,1} tie at 1 and
	// fall back to the writer id: {1,0}=1 (p0), {0,1}=1 (p1), {0,2}=2, {2,2}=4.
	want := []struct {
		page     vm.PageID
		proc     int
		interval int32
	}{{7, 0, 1}, {7, 1, 1}, {7, 1, 2}, {7, 0, 2}, {9, 0, 1}}
	for i, w := range want {
		if ds[i].page != w.page || ds[i].nt.Proc != w.proc || ds[i].nt.Interval != w.interval {
			t.Fatalf("order[%d] = page %d proc %d interval %d, want %+v",
				i, ds[i].page, ds[i].nt.Proc, ds[i].nt.Interval, w)
		}
	}
}
