package tmk

import (
	"testing"

	"repro/internal/sim"
)

// lockRounds is the perf probe tmk.lock_handoff_us: a migratory counter,
// every processor incrementing it under lock 1 once per round. Each
// hand-off ships the previous holder's write notice and the next holder
// faults the page in, fetches one diff, twins, and diffs at the release.
func lockRounds(nprocs, rounds int) {
	cl := sim.NewCluster(sim.DefaultConfig(nprocs))
	d := New(cl, 4096, 1<<20)
	addr := d.Alloc(8)
	d.SealInit()
	cl.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for i := 0; i < rounds; i++ {
			n.AcquireLock(1)
			n.Space().WriteF64(addr, n.Space().ReadF64(addr)+1)
			n.ReleaseLock(1)
		}
	})
	d.Close()
}

// faultRounds is the perf probe tmk.fault_fetch_us generalized to
// nprocs: processor 0 writes a word, everyone else read-faults it in
// after the barrier.
func faultRounds(nprocs, rounds int) {
	cl := sim.NewCluster(sim.DefaultConfig(nprocs))
	d := New(cl, 4096, 1<<22)
	addr := d.Alloc(8 * 512)
	d.SealInit()
	cl.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for i := 0; i < rounds; i++ {
			if p.ID() == 0 {
				n.Space().WriteF64(addr, float64(i))
			}
			n.Barrier(1)
			if p.ID() != 0 {
				_ = n.Space().ReadF64(addr) // fault + diff fetch
			}
			n.Barrier(2)
		}
	})
	d.Close()
}

func BenchmarkLockHandoff(b *testing.B) {
	b.ReportAllocs()
	lockRounds(8, b.N)
}

func BenchmarkFaultFetch(b *testing.B) {
	b.ReportAllocs()
	faultRounds(2, b.N)
}

// marginalAllocs is the host allocation count of one more round of run
// between from and to rounds, cluster-wide: set-up and the warm-up
// rounds up to from cancel out.
func marginalAllocs(run func(rounds int), from, to int) float64 {
	lo := testing.AllocsPerRun(2, func() { run(from) })
	hi := testing.AllocsPerRun(2, func() { run(to) })
	return (hi - lo) / float64(to-from)
}

// TestSteadyStateAllocs pins the data path's allocation count: past the
// warm-up, a round allocates what the protocol retains (the interval's
// notice, its vector time, its block of stored diffs and each diff's
// one buffer) plus the simulator's own per-message cost, and nothing
// that grows with the processor count or with the number of rounds
// already run.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		run   func(nprocs, rounds int)
		bound float64 // allocations per processor per round
	}{
		// One lock hand-off: the Notice, its VC, its one-page block of
		// stored diffs, and the encoded diff's buffer; amortized slice
		// growth of the board and the diff index stays below 1 (4.05
		// measured at 4, 8 and 16 procs).
		{"lock hand-off", lockRounds, 5},
		// One write/barrier/fault/barrier round: a processor's barrier
		// contribution and reply, the combine's reply and size lists and
		// the simulator's contribution slots are all reused, so what
		// remains is the one writer's interval (the same four as a
		// hand-off), amortized over the processors (1.01 at 4 procs,
		// 0.25 at 16).
		{"barrier round", faultRounds, 1.5},
	}
	for _, tc := range cases {
		for _, nprocs := range []int{4, 8, 16} {
			run := func(rounds int) { tc.run(nprocs, rounds) }
			for _, r := range [][2]int{{20, 60}, {60, 100}} {
				got := marginalAllocs(run, r[0], r[1]) / float64(nprocs)
				t.Logf("%s, %2d procs, rounds %d-%d: %.2f allocs per proc per round", tc.name, nprocs, r[0], r[1], got)
				if got > tc.bound {
					t.Errorf("%s, %d procs, rounds %d-%d: %.2f allocs per processor per round, want <= %v",
						tc.name, nprocs, r[0], r[1], got, tc.bound)
				}
			}
		}
	}
}

// TestSharedTwinNotRecycled: the twin of a page written for the first
// time is the sealed image every other node still reads. It must not
// become the buffer the next twin is copied into.
func TestSharedTwinNotRecycled(t *testing.T) {
	cl := sim.NewCluster(sim.DefaultConfig(2))
	d := New(cl, 4096, 3*4096)
	a := d.Alloc(4096)
	b := d.Alloc(4096)
	d.Node(0).Space().WriteF64(a, 1)
	d.Node(0).Space().WriteF64(b, 2)
	d.SealInit()
	pageA := d.img.arena.PageOf(a)
	image := d.Node(0).Space().Page(pageA).Data()
	cl.Run(func(p *sim.Proc) {
		if p.ID() != 1 {
			return
		}
		n := d.Node(1)
		n.AcquireLock(1)
		n.Space().WriteF64(a, 10) // first write: the twin is node 0's image
		if tw := n.dirty[pageA]; tw.owned || &tw.twin[0] != &image[0] {
			t.Errorf("first-write twin: owned=%v, aliases image=%v; want the shared image, not owned",
				tw.owned, &tw.twin[0] == &image[0])
		}
		n.ReleaseLock(1)
		if len(n.freeTwins) != 0 {
			t.Errorf("%d twins recycled after diffing against the shared image, want 0", len(n.freeTwins))
		}
		n.AcquireLock(1)
		n.Space().WriteF64(b, 20) // also a first write
		n.Space().WriteF64(a, 11) // second write: page A is private now, the twin is a copy
		if tw := n.dirty[pageA]; !tw.owned || &tw.twin[0] == &image[0] {
			t.Errorf("second-write twin: owned=%v, aliases image=%v; want a private copy",
				tw.owned, &tw.twin[0] == &image[0])
		}
		n.ReleaseLock(1)
		if len(n.freeTwins) != 1 {
			t.Errorf("%d twins recycled, want 1 (page A's copy)", len(n.freeTwins))
		}
		n.AcquireLock(1)
		n.Space().WriteF64(b, 21) // takes the recycled buffer
		if len(n.freeTwins) != 0 {
			t.Errorf("recycled twin not reused")
		}
		n.ReleaseLock(1)
	})
	if got := d.Node(0).Space().ReadF64(a); got != 1 {
		t.Errorf("node 0's image of page A reads %v after node 1's writes, want 1", got)
	}
	if got := d.Node(0).Space().ReadF64(b); got != 2 {
		t.Errorf("node 0's image of page B reads %v after node 1's writes, want 2", got)
	}
	d.Close()
}
