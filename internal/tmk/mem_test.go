package tmk

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// TestMemLedgerConservation drives the protocol through twins, diffs,
// notices, and fetches, then checks the teardown invariant: Close
// returns every charged byte (frees conserve the ledger back to zero)
// while the peaks — the report — survive.
func TestMemLedgerConservation(t *testing.T) {
	const np = 4
	cl := sim.NewCluster(sim.DefaultConfig(np))
	d := New(cl, 4096, 1<<20)
	base := d.Alloc(8 * 1024)
	s0 := d.Node(0).Space()
	for i := 0; i < 1024; i++ {
		s0.WriteF64(base+vm.Addr(8*i), float64(i))
	}
	d.SealInit()

	// The modeled machine holds one copy of the image per node, so every
	// node is charged all of it, however few copies the host keeps
	// (DESIGN.md §9, "Host memory").
	const imageBytes = 2 * 4096
	snap := cl.Mem.Snapshot()
	for pr := 0; pr < np; pr++ {
		if got := snap[sim.MemKey{Cat: MemCatPages, Proc: pr}].CurBytes; got != imageBytes {
			t.Fatalf("page charge on node %d = %d, want %d", pr, got, imageBytes)
		}
	}

	cl.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		lo := 256 * p.ID()
		for step := 0; step < 3; step++ {
			for i := lo; i < lo+256; i++ {
				n.Space().WriteF64(base+vm.Addr(8*i), float64(i+step))
			}
			n.Barrier(1)
			// Read a rotated block: faults, demand-fetches diffs.
			ro := 256 * ((p.ID() + 1) % np)
			for i := ro; i < ro+256; i++ {
				_ = n.Space().ReadF64(base + vm.Addr(8*i))
			}
			n.Barrier(2)
		}
	})

	snap = cl.Mem.Snapshot()
	for _, cat := range []string{MemCatTwins, MemCatDiffs} {
		peak := int64(0)
		for pr := 0; pr < np; pr++ {
			peak += snap[sim.MemKey{Cat: cat, Proc: pr}].PeakBytes
		}
		if peak == 0 {
			t.Errorf("no %s were ever charged", cat)
		}
	}
	if snap[sim.MemKey{Cat: MemCatBoard, Proc: -1}].PeakBytes == 0 {
		t.Error("notice board never charged")
	}
	// Twins are transient (freed at each interval close); diffs are
	// retained until Close.
	for pr := 0; pr < np; pr++ {
		if cur := snap[sim.MemKey{Cat: MemCatTwins, Proc: pr}].CurBytes; cur != 0 {
			t.Errorf("proc %d: %d twin bytes live outside an interval", pr, cur)
		}
		if cur := snap[sim.MemKey{Cat: MemCatDiffs, Proc: pr}].CurBytes; cur != d.Node(pr).diffBytes {
			t.Errorf("proc %d: diff charge %d != store %d", pr, cur, d.Node(pr).diffBytes)
		}
	}

	d.Close()
	if err := cl.Mem.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	snap = cl.Mem.Snapshot()
	for pr := 0; pr < np; pr++ {
		if m := snap[sim.MemKey{Cat: MemCatPages, Proc: pr}]; m.CurBytes != 0 || m.PeakBytes != imageBytes {
			t.Errorf("node %d pages after Close: %d live, peak %d, want 0 and %d", pr, m.CurBytes, m.PeakBytes, imageBytes)
		}
	}
	d.Close() // idempotent
	if err := cl.Mem.CheckBalanced(); err != nil {
		t.Fatalf("second Close unbalanced the ledger: %v", err)
	}
}
