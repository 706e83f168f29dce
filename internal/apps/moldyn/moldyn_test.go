package moldyn

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// testParams returns a small but non-trivial configuration: enough
// molecules for several pages of x and forces, several rebuilds, and a
// multi-page interaction list.
func testParams(n, procs, steps, update int) Params {
	p := DefaultParams(n, procs)
	p.Steps = steps
	p.UpdateEvery = update
	p.Cutoff = 4.0
	p.PageSize = 1024
	return p
}

func TestWorkloadDeterministic(t *testing.T) {
	a := Generate(testParams(256, 4, 4, 2))
	b := Generate(testParams(256, 4, 4, 2))
	for i := range a.X0 {
		if a.X0[i] != b.X0[i] || a.Drift[i] != b.Drift[i] {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestPositionsOnLattice(t *testing.T) {
	w := Generate(testParams(128, 2, 2, 0))
	for i, v := range w.X0 {
		if apps.Q(v) != v {
			t.Fatalf("X0[%d]=%v not on lattice", i, v)
		}
		if v < 0 || v >= w.L {
			t.Fatalf("X0[%d]=%v outside box %v", i, v, w.L)
		}
	}
}

func TestPairsSymmetricIandJ(t *testing.T) {
	p := testParams(200, 2, 1, 0)
	w := Generate(p)
	pairs, _ := BuildPairs(&p, w.L, w.X0, 1, 0)
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Fatalf("pair %v not ordered i<j", pr)
		}
	}
}

func TestPartitionPairsSectionsAreContiguous(t *testing.T) {
	p := testParams(256, 4, 1, 0)
	w := Generate(p)
	pairs, _ := BuildPairs(&p, w.L, w.X0, 1, 0)
	part := chaos.RCB(Coords(w.X0), 4)
	sorted, starts := chaos.PartitionPairs(pairs, part)
	if len(sorted) != len(pairs) {
		t.Fatal("pairs lost in partitioning")
	}
	if starts[0] != 0 || starts[4] != len(pairs) {
		t.Fatalf("starts = %v", starts)
	}
	for pr := 0; pr < 4; pr++ {
		for k := starts[pr]; k < starts[pr+1]; k++ {
			if part.Owner[sorted[k][0]] != pr {
				t.Fatalf("pair %d assigned to wrong section", k)
			}
		}
	}
}

// runAll executes all four backends and checks bit-exact agreement.
func runAll(t *testing.T, p Params) map[string]*apps.Result {
	t.Helper()
	w := Generate(p)
	seq := RunSequential(w)
	tmkBase := RunTmk(w, BuildImage(w), TmkOptions{})
	tmkOpt := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true})
	ch := RunChaos(w)
	for _, r := range []*apps.Result{tmkBase, tmkOpt, ch} {
		if err := apps.VerifyEqual(seq, r); err != nil {
			t.Fatalf("backend %s diverges from sequential: %v", r.System, err)
		}
	}
	return map[string]*apps.Result{
		"seq": seq, "tmk": tmkBase, "tmk-opt": tmkOpt, "chaos": ch,
	}
}

func TestAllBackendsAgreeNoRebuild(t *testing.T) {
	runAll(t, testParams(192, 4, 3, 0))
}

func TestAllBackendsAgreeWithRebuilds(t *testing.T) {
	runAll(t, testParams(192, 4, 6, 2))
}

func TestAllBackendsAgreeEightProcs(t *testing.T) {
	runAll(t, testParams(320, 8, 4, 2))
}

func TestAllBackendsAgreeOddProcs(t *testing.T) {
	runAll(t, testParams(200, 3, 4, 2))
}

func TestOptimizedUsesFewerMessagesThanBase(t *testing.T) {
	rs := runAll(t, testParams(320, 8, 6, 3))
	if rs["tmk-opt"].Messages >= rs["tmk"].Messages {
		t.Errorf("optimized (%d msgs) not fewer than base (%d msgs)",
			rs["tmk-opt"].Messages, rs["tmk"].Messages)
	}
	if rs["tmk-opt"].TimeSec >= rs["tmk"].TimeSec {
		t.Errorf("optimized (%.3fs) not faster than base (%.3fs)",
			rs["tmk-opt"].TimeSec, rs["tmk"].TimeSec)
	}
}

func TestSpeedupReasonable(t *testing.T) {
	// At paper scale the computation dominates; emulate that at test
	// scale by raising the per-interaction cost so the 8-processor run
	// must show real scaling.
	p := testParams(512, 8, 8, 0)
	p.Costs.InteractionUS = 100
	w := Generate(p)
	seq := RunSequential(w)
	opt := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true})
	sp := seq.TimeSec / opt.TimeSec
	if sp < 4 || sp > 8.2 {
		t.Errorf("8-proc compute-bound speedup = %.2f, implausible", sp)
	}
}

func TestRebuildChangesPairs(t *testing.T) {
	// The drift must actually change the interaction list; otherwise the
	// update-frequency experiments are vacuous.
	p := testParams(256, 2, 8, 0)
	w := Generate(p)
	x := append([]float64(nil), w.X0...)
	before, _ := BuildPairs(&p, w.L, x, 1, 0)
	// Integrate a few steps with zero force (drift only).
	for s := 0; s < 8; s++ {
		for i := range x {
			x[i] = apps.Integrate(x[i], 0, w.Drift[i], w.L)
		}
	}
	after, _ := BuildPairs(&p, w.L, x, 1, 0)
	same := 0
	seen := map[[2]int32]bool{}
	for _, pr := range before {
		seen[pr] = true
	}
	for _, pr := range after {
		if seen[pr] {
			same++
		}
	}
	if same == len(before) && len(after) == len(before) {
		t.Error("interaction list did not change after 8 drift steps")
	}
}

func TestTmkDeterministicAcrossRuns(t *testing.T) {
	// Exact equality, including simulated times — no tolerance band. The
	// chaos backend is included because its gather/scatter/allgather
	// receive path was the historically wobbly one.
	p := testParams(192, 4, 4, 2)
	w := Generate(p)
	for name, run := range map[string]func() *apps.Result{
		"tmk-opt": func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{Optimized: true}) },
		"chaos":   func() *apps.Result { return RunChaos(w) },
	} {
		a := run()
		b := run()
		if a.TimeSec != b.TimeSec || a.Messages != b.Messages || a.DataMB != b.DataMB {
			t.Errorf("%s nondeterministic: (%v,%d,%v) vs (%v,%d,%v)",
				name, a.TimeSec, a.Messages, a.DataMB, b.TimeSec, b.Messages, b.DataMB)
		}
	}
}

func TestChaosInspectorCostGrowsWithRebuilds(t *testing.T) {
	p1 := testParams(256, 4, 8, 0)
	p2 := testParams(256, 4, 8, 2) // rebuilds every 2 steps
	w1, w2 := Generate(p1), Generate(p2)
	r1, r2 := RunChaos(w1), RunChaos(w2)
	if r2.Detail["inspector_s"] <= r1.Detail["inspector_s"] {
		t.Errorf("inspector time did not grow with rebuilds: %v vs %v",
			r1.Detail["inspector_s"], r2.Detail["inspector_s"])
	}
}

// TestBackendsLeaveWorkloadUntouched: Generate's partition and sorted
// pair sections are shared by every backend and read-only. Run
// all four backends with rebuilds on one Workload, concurrently so the
// race detector sees any write, then compare the set-up with a fresh
// Generate: a backend that appends into a section or rewrites shared
// set-up fails here.
func TestBackendsLeaveWorkloadUntouched(t *testing.T) {
	p := testParams(192, 4, 6, 2)
	w := Generate(p)
	var wg sync.WaitGroup
	for _, run := range []func() *apps.Result{
		func() *apps.Result { return RunSequential(w) },
		func() *apps.Result { return RunChaos(w) },
		func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{}) },
		func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{Optimized: true}) },
	} {
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	wg.Wait()
	fresh := Generate(p)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"X0", w.X0, fresh.X0}, {"Drift", w.Drift, fresh.Drift},
		{"Part", w.Part, fresh.Part}, {"Sorted", w.Sorted, fresh.Sorted},
		{"Starts", w.Starts, fresh.Starts},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("Workload.%s changed while the backends ran", f.name)
		}
	}
}
