package tsp

import (
	"context"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// bruteForce finds the (cost, lex)-least optimal tour by exhaustive
// permutation — the ground truth the branch-and-bound must match.
func bruteForce(w *Workload) (int64, []int32) {
	n := w.P.N
	best := int64(noBest)
	var bestTour []int32
	tour := []int32{0}
	used := make([]bool, n)
	used[0] = true
	var rec func(cost int64)
	rec = func(cost int64) {
		if len(tour) == n {
			total := cost + w.D(tour[n-1], 0)
			if Better(total, tour, best, bestTour) {
				best = total
				bestTour = append([]int32(nil), tour...)
			}
			return
		}
		last := tour[len(tour)-1]
		for c := int32(1); c < int32(n); c++ {
			if used[c] {
				continue
			}
			used[c] = true
			tour = append(tour, c)
			rec(cost + w.D(last, c))
			tour = tour[:len(tour)-1]
			used[c] = false
		}
	}
	rec(0)
	return best, bestTour
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 11, 42} {
		p := DefaultParams(8, 1)
		p.Seed = seed
		w := Generate(p)
		wantCost, wantTour := bruteForce(w)
		r := RunSequential(w)
		if r.Forces[0] != float64(wantCost) {
			t.Fatalf("seed %d: cost %v != brute-force %d", seed, r.Forces[0], wantCost)
		}
		for i, c := range wantTour {
			if r.X[i] != float64(c) {
				t.Fatalf("seed %d: tour[%d] = %v != brute-force %d", seed, i, r.X[i], c)
			}
		}
	}
}

func TestAllVariantsAgreeExactly(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		w, err := apps.New("tsp", apps.Config{N: 9, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		vs, err := apps.RunAll(context.Background(), w)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for _, r := range vs.Parallel() {
			if r.TimeSec <= 0 {
				t.Errorf("procs=%d %s: non-positive time %v", procs, r.System, r.TimeSec)
			}
		}
	}
}

func TestTmkVariantsRecordLockStats(t *testing.T) {
	p := DefaultParams(9, 4)
	w := Generate(p)

	base := RunTmk(w, BuildImage(w), TmkOptions{})
	batched := RunTmk(w, BuildImage(w), TmkOptions{Batched: true})
	for _, tc := range []struct {
		name string
		r    *apps.Result
	}{{"base", base}, {"batched", batched}} {
		r := tc.r
		total := r.LockTotal()
		if total.Acquires == 0 || total.HoldUS <= 0 {
			t.Errorf("%s: empty lock stats: %+v", tc.name, total)
		}
		if lockAcquires(r.Locks, lockQueue) == 0 {
			t.Errorf("%s: queue lock never acquired", tc.name)
		}
		if lockAcquires(r.Locks, lockBound) == 0 {
			t.Errorf("%s: bound lock never acquired", tc.name)
		}
		// Grant notice bytes flow on the TreadMarks lock path.
		if total.GrantBytes == 0 {
			t.Errorf("%s: no notice bytes on grants", tc.name)
		}
		// Each of the 4 processors acquired the queue lock at least once.
		for pid := 0; pid < p.Procs; pid++ {
			if r.Locks[sim.LockKey{Res: lockQueue, Proc: pid}].Acquires == 0 {
				t.Errorf("%s: proc %d never claimed a task", tc.name, pid)
			}
		}
	}

	// The batched variant must acquire the queue lock fewer times.
	bq := lockAcquires(base.Locks, lockQueue)
	oq := lockAcquires(batched.Locks, lockQueue)
	if oq >= bq {
		t.Errorf("batched queue acquires %d not fewer than base %d", oq, bq)
	}
	if mp := RunMP(w); mp.Locks != nil {
		t.Errorf("message-passing variant reports lock stats: %+v", mp.Locks)
	}
}

func TestTmkDeterministicIncludingLockStats(t *testing.T) {
	p := DefaultParams(9, 8)
	w := Generate(p)
	run := func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{}) }
	ref := run()
	for i := 1; i < 3; i++ {
		r := run()
		if math.Float64bits(r.TimeSec) != math.Float64bits(ref.TimeSec) ||
			r.Messages != ref.Messages {
			t.Fatalf("run %d: (%v, %d) != reference (%v, %d)",
				i, r.TimeSec, r.Messages, ref.TimeSec, ref.Messages)
		}
		if len(r.Locks) != len(ref.Locks) {
			t.Fatalf("run %d: %d lock cells != %d", i, len(r.Locks), len(ref.Locks))
		}
		for k, v := range ref.Locks {
			if r.Locks[k] != v {
				t.Fatalf("run %d: lock cell %+v = %+v != reference %+v", i, k, r.Locks[k], v)
			}
		}
		if err := apps.VerifyEqual(ref, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryKnobs(t *testing.T) {
	cfg := apps.Config{N: 8, Procs: 2, Knobs: map[string]int{"depth": 2, "batch": 2}}
	if _, err := apps.New("tsp", cfg); err != nil {
		t.Fatal(err)
	}
	if p := params(cfg); p.SeedDepth != 2 || p.Batch != 2 {
		t.Fatalf("knobs not applied: %+v", p)
	}
	if _, err := apps.New("tsp", apps.Config{N: 8, Procs: 2,
		Knobs: map[string]int{"bogus": 1}}); err == nil {
		t.Fatal("bogus knob accepted")
	}
}

// TestExploreTaskAllocs pins that the search allocates per task, not per
// node: the tour and used, on a task with a subtree ten times another's
// as on the smaller one.
func TestExploreTaskAllocs(t *testing.T) {
	w := Generate(DefaultParams(10, 1))
	s := newSearcher(w)
	// Seeded with the optimum, the search finds no better tour, so adopt
	// copies nothing.
	s.adopt(bruteForce(w))
	small, large := w.Tasks[0], Task{Prefix: []int32{0}}
	if nSmall, nLarge := s.exploreTask(small), s.exploreTask(large); nLarge < 10*nSmall {
		t.Fatalf("subtrees of %d and %d nodes, want one ten times the other", nSmall, nLarge)
	}
	for _, task := range []Task{small, large} {
		if got := testing.AllocsPerRun(10, func() { s.exploreTask(task) }); got != 2 {
			t.Errorf("exploreTask of prefix %v allocates %v times, want 2 (tour and used)", task.Prefix, got)
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
