// Registry tests live in an external test package so they can import
// the app packages (which import apps) without a cycle; the blank
// imports trigger self-registration exactly the way a real binary does.
package apps_test

import (
	"context"
	"testing"

	"repro/internal/apps"

	_ "repro/internal/apps/moldyn"
	_ "repro/internal/apps/nbf"
	_ "repro/internal/apps/spmv"
	_ "repro/internal/apps/taskq"
	_ "repro/internal/apps/tsp"
	_ "repro/internal/apps/unstruct"
)

// appConfigs returns a small test-scale config per registered app.
func appConfigs(t *testing.T) map[string]apps.Config {
	t.Helper()
	return map[string]apps.Config{
		"moldyn":   {N: 192, Procs: 4, Steps: 4, Knobs: map[string]int{"update_every": 2}},
		"nbf":      {N: 256, Procs: 4, Steps: 3, Knobs: map[string]int{"partners": 12}},
		"unstruct": {N: 256, Procs: 4, Steps: 3},
		"spmv":     {N: 384, Procs: 4, Steps: 3, Knobs: map[string]int{"nnz_row": 8}},
		// Lock-based workloads: N is cities/items, not elements.
		"tsp":   {N: 8, Procs: 4, Knobs: map[string]int{"depth": 2}},
		"taskq": {N: 96, Procs: 4},
	}
}

func TestAllRegisteredWorkloadsRoundTrip(t *testing.T) {
	cfgs := appConfigs(t)
	for _, name := range apps.Names() {
		cfg, ok := cfgs[name]
		if !ok {
			t.Errorf("no test config for registered app %q — add one here", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			w, err := apps.New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w.App != name {
				t.Errorf("App = %q, registered as %q", w.App, name)
			}
			vs, err := apps.RunAll(context.Background(), w)
			if err != nil {
				t.Fatal(err) // RunAll already verifies bit-exact agreement
			}
			for _, r := range vs.All() {
				if r.TimeSec <= 0 {
					t.Errorf("%s: no timed window (TimeSec = %v)", r.System, r.TimeSec)
				}
			}
			for _, r := range vs.Parallel() {
				if r.Speedup <= 0 {
					t.Errorf("%s: speedup not filled", r.System)
				}
				if r.Messages <= 0 {
					t.Errorf("%s: no messages counted", r.System)
				}
			}
		})
	}
}

func TestRegisteredWorkloadsDeterministic(t *testing.T) {
	// Same seed -> identical Result for every variant: build the
	// workload twice and compare all four runs field by field.
	cfgs := appConfigs(t)
	for _, name := range apps.Names() {
		cfg, ok := cfgs[name]
		if !ok {
			continue // reported by TestAllRegisteredWorkloadsRoundTrip
		}
		t.Run(name, func(t *testing.T) {
			runOnce := func() *apps.VariantSet {
				w, err := apps.New(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				vs, err := apps.RunAll(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				return vs
			}
			a, b := runOnce(), runOnce()
			av, bv := a.All(), b.All()
			for i := range av {
				if err := apps.VerifyEqual(av[i], bv[i]); err != nil {
					t.Errorf("final state not reproducible: %v", err)
				}
				if av[i].Messages != bv[i].Messages || av[i].DataMB != bv[i].DataMB {
					t.Errorf("%s: traffic not reproducible: (%d, %v) vs (%d, %v)",
						av[i].System, av[i].Messages, av[i].DataMB, bv[i].Messages, bv[i].DataMB)
				}
			}
		})
	}
}

func TestConfigKnobs(t *testing.T) {
	c := apps.Config{}
	if c.Knob("x", 7) != 7 {
		t.Error("default knob value not returned")
	}
	c2 := c.WithKnob("x", 3)
	if c2.Knob("x", 7) != 3 {
		t.Error("set knob value not returned")
	}
	if c.Knobs != nil {
		t.Error("WithKnob mutated the receiver")
	}
	c3 := c2.WithKnob("y", 1)
	if c3.Knob("x", 0) != 3 || c3.Knob("y", 0) != 1 {
		t.Error("WithKnob dropped existing knobs")
	}
	if c2.Knob("y", 0) != 0 {
		t.Error("WithKnob leaked into the receiver's map")
	}
}

func TestNewRejectsUnknownKnobs(t *testing.T) {
	// A typo'd knob must error, not silently run with defaults.
	cfg := apps.Config{N: 64, Procs: 2}.WithKnob("update-every", 5)
	if _, err := apps.New("moldyn", cfg); err == nil {
		t.Fatal("typo'd knob accepted silently")
	}
	if _, err := apps.New("moldyn", cfg.WithKnob("update_every", 5)); err == nil {
		t.Fatal("error should still name the first unknown knob")
	}
	ok := apps.Config{N: 64, Procs: 2}.WithKnob("update_every", 5)
	if _, err := apps.New("moldyn", ok); err != nil {
		t.Fatalf("declared knob rejected: %v", err)
	}
}

func TestNewRejectsNegativeKnobValues(t *testing.T) {
	// A negative knob would panic in make() inside Generate; New must
	// reject it up front.
	cfg := apps.Config{N: 64, Procs: 2}.WithKnob("nnz_row", -1)
	if _, err := apps.New("spmv", cfg); err == nil {
		t.Fatal("negative knob accepted")
	}
}

func TestNewRejectsNonPositiveSize(t *testing.T) {
	// A zero N or Procs would panic deep in the arena; New must reject
	// it up front.
	if _, err := apps.New("moldyn", apps.Config{Procs: 2, Steps: 2}); err == nil {
		t.Fatal("zero N accepted")
	}
	if _, err := apps.New("spmv", apps.Config{N: 64, Steps: 2}); err == nil {
		t.Fatal("zero Procs accepted")
	}
}

func TestLookupAndNames(t *testing.T) {
	if _, ok := apps.Knobs("spmv"); !ok {
		t.Fatal("spmv not registered")
	}
	if _, ok := apps.Knobs("nope"); ok {
		t.Fatal("phantom registration")
	}
	if _, err := apps.New("nope", apps.Config{}); err == nil {
		t.Fatal("New accepted an unknown name")
	}
	names := apps.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted/unique: %v", names)
		}
	}
}
