package taskq

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

func TestAllVariantsAgreeExactly(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		w, err := apps.New("taskq", apps.Config{N: 64, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		vs, err := apps.RunAll(context.Background(), w)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		wantSum := float64(64 * 63 / 2)
		for _, r := range vs.All() {
			if r.X[0] != 64 || r.Forces[0] != wantSum {
				t.Errorf("procs=%d %s: counter=%v sum=%v, want 64, %v",
					procs, r.System, r.X[0], r.Forces[0], wantSum)
			}
		}
	}
}

func TestEveryProcClaimsUnderContention(t *testing.T) {
	w := Generate(DefaultParams(200, 8))
	r := RunTmk(w, BuildImage(w), TmkOptions{})
	if n := lockAcquires(r.Locks, lockCounter); n < 200 {
		// One acquire per item plus one empty-handed final acquire per
		// processor.
		t.Fatalf("counter lock acquires = %d, want >= 200", n)
	}
	for pid := 0; pid < 8; pid++ {
		cell := r.Locks[sim.LockKey{Res: lockCounter, Proc: pid}]
		if cell.Acquires == 0 {
			t.Errorf("proc %d never acquired the counter lock", pid)
		}
	}
	if total := r.LockTotal(); total.WaitUS <= 0 || total.GrantBytes == 0 {
		t.Errorf("contention stats empty: %+v", r.LockTotal())
	}
}

func TestBatchedClaimsFewerAcquires(t *testing.T) {
	w := Generate(DefaultParams(128, 4))
	base := RunTmk(w, BuildImage(w), TmkOptions{})
	batched := RunTmk(w, BuildImage(w), TmkOptions{Batched: true})
	b := lockAcquires(base.Locks, lockCounter)
	o := lockAcquires(batched.Locks, lockCounter)
	if o*2 >= b {
		t.Fatalf("batched acquires %d not well below base %d", o, b)
	}
	if batched.Messages >= base.Messages {
		t.Fatalf("batched messages %d not below base %d", batched.Messages, base.Messages)
	}
}

func TestWorkloadGeneration(t *testing.T) {
	p := DefaultParams(50, 2)
	w := Generate(p)
	if len(w.WorkUS) != 50 {
		t.Fatalf("want 50 work entries, got %d", len(w.WorkUS))
	}
	for i, us := range w.WorkUS {
		if us < float64(p.WorkLoUS) || us > float64(p.WorkHiUS) {
			t.Fatalf("work[%d] = %v outside [%d, %d]", i, us, p.WorkLoUS, p.WorkHiUS)
		}
	}
	w2 := Generate(p)
	for i := range w.WorkUS {
		if w.WorkUS[i] != w2.WorkUS[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

// lockAcquires sums lock res's acquires over every processor.
func lockAcquires(locks map[sim.LockKey]sim.LockStat, res int) int64 {
	n := int64(0)
	for k, ls := range locks {
		if k.Res == res {
			n += ls.Acquires
		}
	}
	return n
}
