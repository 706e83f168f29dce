package sim

import (
	"math"
	"testing"
)

// contendOnce runs nprocs processors each doing iters acquire/hold/
// release cycles on resource res, and returns the resulting snapshot.
func contendOnce(nprocs, iters, res int, holdUS float64) map[LockKey]LockStat {
	c := NewCluster(DefaultConfig(nprocs))
	c.Run(func(p *Proc) {
		for i := 0; i < iters; i++ {
			free := p.AcquireResource(res, p.Clock(), nil)
			if free > p.Clock() {
				p.AdvanceTo(free)
			}
			p.Advance(holdUS)
			p.ReleaseResource(res, p.Clock())
		}
	})
	return c.Sync.Snapshot()
}

func TestSyncStatsAttribution(t *testing.T) {
	const nprocs, iters = 4, 3
	snap := contendOnce(nprocs, iters, 7, 100)

	total := TotalLockStat(snap)
	if total.Acquires != nprocs*iters {
		t.Fatalf("total acquires = %d, want %d", total.Acquires, nprocs*iters)
	}
	for pid := 0; pid < nprocs; pid++ {
		ls := snap[LockKey{Res: 7, Proc: pid}]
		if ls.Acquires != iters {
			t.Errorf("proc %d acquires = %d, want %d", pid, ls.Acquires, iters)
		}
		// Every cycle holds for exactly holdUS of simulated time.
		if math.Abs(ls.HoldUS-float64(iters)*100) > 1e-9 {
			t.Errorf("proc %d holdUS = %v, want %v", pid, ls.HoldUS, float64(iters)*100)
		}
	}
	// With every processor requesting at time 0 and a serialized hold,
	// someone must have waited.
	if total.WaitUS <= 0 {
		t.Fatalf("total waitUS = %v, want > 0 under contention", total.WaitUS)
	}
	// The first grantee (least key, least proc: proc 0) got an idle
	// resource: its first-cycle wait is zero, so its total wait must be
	// strictly less than the last processor's.
	if snap[LockKey{Res: 7, Proc: 0}].WaitUS >= snap[LockKey{Res: 7, Proc: nprocs - 1}].WaitUS {
		t.Errorf("proc 0 waited %v, proc %d waited %v; expected proc 0 to wait less",
			snap[LockKey{Res: 7, Proc: 0}].WaitUS, nprocs-1,
			snap[LockKey{Res: 7, Proc: nprocs - 1}].WaitUS)
	}
}

func TestSyncStatsDeterministicAcrossRuns(t *testing.T) {
	ref := contendOnce(8, 5, 3, 40)
	for run := 1; run < 4; run++ {
		got := contendOnce(8, 5, 3, 40)
		if len(got) != len(ref) {
			t.Fatalf("run %d: %d cells != reference %d", run, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("run %d: cell %+v = %+v != reference %+v", run, k, got[k], v)
			}
		}
	}
}

func TestSyncStatsGrantBytes(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	c.Sync.CountGrantBytes(1, 5, 64)
	c.Sync.CountGrantBytes(1, 5, 36)
	c.Sync.CountGrantBytes(0, 5, 9)
	snap := c.Sync.Snapshot()
	if got := snap[LockKey{Res: 5, Proc: 1}].GrantBytes; got != 100 {
		t.Fatalf("proc 1 grant bytes = %d, want 100", got)
	}
	if got := snap[LockKey{Res: 5, Proc: 0}].GrantBytes; got != 9 {
		t.Fatalf("proc 0 grant bytes = %d, want 9", got)
	}
	if got := TotalLockStat(snap).GrantBytes; got != 109 {
		t.Fatalf("total grant bytes = %d, want 109", got)
	}
}

func TestSubSnapshotsWindow(t *testing.T) {
	start := map[LockKey]LockStat{
		{Res: 1, Proc: 0}: {Acquires: 2, WaitUS: 10, HoldUS: 20, GrantBytes: 5},
	}
	end := map[LockKey]LockStat{
		{Res: 1, Proc: 0}: {Acquires: 5, WaitUS: 30, HoldUS: 60, GrantBytes: 15},
		{Res: 2, Proc: 1}: {Acquires: 1, WaitUS: 0, HoldUS: 7, GrantBytes: 0},
	}
	d := SubSnapshots(end, start)
	want0 := LockStat{Acquires: 3, WaitUS: 20, HoldUS: 40, GrantBytes: 10}
	if d[LockKey{Res: 1, Proc: 0}] != want0 {
		t.Errorf("window cell (1,0) = %+v, want %+v", d[LockKey{Res: 1, Proc: 0}], want0)
	}
	if d[LockKey{Res: 2, Proc: 1}].HoldUS != 7 {
		t.Errorf("window cell (2,1) missing")
	}
	// A cell unchanged across the window is dropped.
	same := map[LockKey]LockStat{{Res: 9, Proc: 9}: {Acquires: 4}}
	if d := SubSnapshots(same, same); len(d) != 0 {
		t.Errorf("unchanged cell survived the diff: %v", d)
	}
}
