package moldyn

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

// The option matrix: every backend variant must still produce the exact
// sequential result.

func TestTableKindsProduceSameResults(t *testing.T) {
	base := testParams(256, 4, 4, 2)
	var ref *apps.Result
	for _, kind := range []chaos.TableKind{chaos.Replicated, chaos.Distributed, chaos.Paged} {
		p := base
		p.Table.Kind = kind
		r := RunChaos(Generate(p))
		if ref == nil {
			ref = r
			continue
		}
		if err := apps.VerifyEqual(ref, r); err != nil {
			t.Fatalf("table kind %v changed results: %v", kind, err)
		}
	}
}

func TestNoAggregationAgreement(t *testing.T) {
	p := testParams(256, 4, 4, 2)
	w := Generate(p)
	seq := RunSequential(w)
	noAgg := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true, NoAggregation: true})
	if err := apps.VerifyEqual(seq, noAgg); err != nil {
		t.Fatalf("no-aggregation: %v", err)
	}
	agg := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true})
	if agg.Messages > noAgg.Messages {
		t.Errorf("aggregation increased messages: %d vs %d", agg.Messages, noAgg.Messages)
	}
}

func TestTwoProcsMinimal(t *testing.T) {
	runAll(t, testParams(128, 2, 3, 2))
}

func TestSixteenProcs(t *testing.T) {
	runAll(t, testParams(512, 16, 3, 2))
}

// TestRegistryKnobs checks the no_aggregation knob reaches the tmk-opt
// slot alone: with it set, the registry's TmkOpt is RunTmk with
// NoAggregation on the same workload, and the other three slots are
// the knob-free registry's.
func TestRegistryKnobs(t *testing.T) {
	cfg := apps.Config{N: 256, Procs: 4, Steps: 4}
	plain, err := apps.New("moldyn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	knob, err := apps.New("moldyn", cfg.WithKnob("no_aggregation", 1))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(cfg.N, cfg.Procs)
	p.Steps = cfg.Steps
	got := knob.TmkOpt()
	w := Generate(p)
	sameResult(t, "tmk-opt", got, RunTmk(w, BuildImage(w), TmkOptions{Optimized: true, NoAggregation: true}))
	if opt := plain.TmkOpt(); got.Messages == opt.Messages {
		t.Errorf("no_aggregation left tmk-opt's %d messages unchanged", opt.Messages)
	}
	sameResult(t, "seq", knob.Sequential(), plain.Sequential())
	sameResult(t, "chaos", knob.Chaos(), plain.Chaos())
	sameResult(t, "tmk", knob.TmkBase(), plain.TmkBase())
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
