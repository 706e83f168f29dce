package spmv

import (
	"testing"

	"repro/internal/apps"
)

func testParams(n, procs, steps int) Params {
	p := DefaultParams(n, procs)
	p.Steps = steps
	p.NNZRow = 12
	p.Band = 32
	p.PageSize = 1024
	return p
}

func TestWorkloadDeterministicAndValid(t *testing.T) {
	a := Generate(testParams(512, 4, 3))
	b := Generate(testParams(512, 4, 3))
	for i := range a.X0 {
		if a.X0[i] != b.X0[i] {
			t.Fatal("workload not deterministic")
		}
		if apps.Q(a.X0[i]) != a.X0[i] {
			t.Fatalf("X0[%d] off lattice", i)
		}
	}
	for i, c := range a.Cols {
		if b.Cols[i] != c || a.Vals[i] != b.Vals[i] {
			t.Fatal("matrix not deterministic")
		}
		if c < 0 || int(c) >= a.P.N {
			t.Fatalf("cols[%d] = %d out of range", i, c)
		}
	}
}

func TestBandStructure(t *testing.T) {
	p := testParams(1024, 4, 1)
	w := Generate(p)
	// Most columns of a row must be within the band; each row has
	// exactly NNZRow entries.
	for i := 0; i < p.N; i++ {
		near := 0
		for k := 0; k < p.NNZRow; k++ {
			c := int(w.Cols[i*p.NNZRow+k])
			d := (c - i + p.N) % p.N
			if d <= p.Band || d >= p.N-p.Band {
				near++
			}
		}
		if near < p.NNZRow-p.FarPerRow {
			t.Fatalf("row %d has only %d near-diagonal columns", i, near)
		}
	}
}

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

func TestAllBackendsAgree(t *testing.T) {
	runAll(t, testParams(512, 4, 3))
}

func TestAllBackendsAgreeEightProcs(t *testing.T) {
	runAll(t, testParams(1024, 8, 3))
}

func TestAllBackendsAgreeOddProcs(t *testing.T) {
	runAll(t, testParams(600, 3, 3))
}

func TestAllBackendsAgreeNonPowerOfTwoN(t *testing.T) {
	// Block boundaries land inside pages: 500/4 = 125 doubles per block
	// against a 128-double page.
	runAll(t, testParams(500, 4, 3))
}

func TestTinyMatrixSmallerThanBand(t *testing.T) {
	// N far below the band half-width: the near-diagonal column draw
	// must use a floored modulo (a plain Go % went negative here), and
	// procs with empty row blocks must still participate in the
	// collectives.
	runAll(t, testParams(8, 8, 2))
	runAll(t, testParams(4, 8, 2))
}

func TestOptimizedMovesFewerMessagesThanBase(t *testing.T) {
	// Blocks must span several pages so aggregation matters (one
	// exchange per remote writer instead of one per page).
	rs := runAll(t, testParams(2048, 4, 4))
	if rs["tmk-opt"].Messages >= rs["tmk"].Messages {
		t.Errorf("optimized (%d msgs) not strictly fewer than base (%d)",
			rs["tmk-opt"].Messages, rs["tmk"].Messages)
	}
	if rs["tmk-opt"].TimeSec >= rs["tmk"].TimeSec {
		t.Errorf("optimized (%.4fs) not faster than base (%.4fs)",
			rs["tmk-opt"].TimeSec, rs["tmk"].TimeSec)
	}
}

func TestInspectorExcludedFromWindow(t *testing.T) {
	p := testParams(512, 4, 3)
	w := Generate(p)
	ch := RunChaos(w)
	if ch.Detail["inspector_s"] <= 0 {
		t.Fatal("inspector time not recorded")
	}
	if ch.TimeSec <= 0 {
		t.Fatal("no timed window")
	}
	opt := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true})
	if opt.Detail["scan_s"] <= 0 {
		t.Fatal("scan time not recorded")
	}
	// The Validate scan is far cheaper than the inspector.
	if opt.Detail["scan_s"]*2 >= ch.Detail["inspector_s"] {
		t.Errorf("scan %.6fs not clearly cheaper than inspector %.6fs",
			opt.Detail["scan_s"], ch.Detail["inspector_s"])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	p := testParams(600, 4, 3)
	w := Generate(p)
	// State, traffic counts, AND simulated times are exactly reproducible:
	// the ordering core drains messages in total order, sums interrupt
	// charges in a fixed order, and arbitrates contended resources at
	// quiescence, so there is no tolerance band here — bit equality.
	for name, run := range map[string]func() *apps.Result{
		"tmk-opt": func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{Optimized: true}) },
		"tmk":     func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{}) },
		"chaos":   func() *apps.Result { return RunChaos(w) },
	} {
		a := run()
		b := run()
		if err := apps.VerifyEqual(a, b); err != nil {
			t.Errorf("%s: final state not reproducible: %v", name, err)
		}
		if a.TimeSec != b.TimeSec || a.Messages != b.Messages || a.DataMB != b.DataMB {
			t.Errorf("%s: nondeterministic: (%v,%d,%v) vs (%v,%d,%v)",
				name, a.TimeSec, a.Messages, a.DataMB, b.TimeSec, b.Messages, b.DataMB)
		}
	}
}
