package scenario

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/raceflag"
	"repro/internal/runner"
)

// testRunner is the pool and cache every test here shares, so parallel
// specs are bounded together as in one `scenario run`.
var testRunner = runner.New(0, cache.New(128))

func run(spec *Spec) (*Outcome, error) {
	return RunCtx(context.Background(), testRunner, spec)
}

// TestAppExperiment runs the generic app experiment end to end on a
// tiny moldyn: rendered table, flattened metrics, repro check, and a
// band that holds.
func TestAppExperiment(t *testing.T) {
	spec, err := Parse([]byte(`
name: tiny-moldyn
experiment: app
app: moldyn
n: 64
steps: 2
procs: [2]
repro: true
assert:
  - metric: "moldyn/2 procs/seq/speedup"
    min: 1
    max: 1
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, err := run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", out.Violations)
	}
	for _, want := range []string{"Scenario tiny-moldyn: moldyn (N=64).", "2 procs (seq = ", "tmk-opt",
		"All parallel backends verified bit-identical to the sequential program."} {
		if !strings.Contains(out.Rendered, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out.Rendered)
		}
	}
	for _, key := range []string{
		"moldyn/2 procs/seq/time_s", "moldyn/2 procs/chaos/messages",
		"moldyn/2 procs/tmk/data_mb", "moldyn/2 procs/tmk-opt/speedup",
	} {
		if _, ok := out.Metrics[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if !strings.Contains(out.MetricsText(), "moldyn/2 procs/seq/speedup = 1\n") {
		t.Errorf("MetricsText missing the seq speedup line:\n%s", out.MetricsText())
	}
}

// TestClaims runs every spec under scenarios/claims — the paper's
// claims C2 and C3 and ablations A1-A5 (DESIGN.md §4) — and fails on
// any band violation: the bands are the claims. Each spec runs once:
// CI's scenario leg runs the claims with -repro, and run-to-run
// identity is TestGoldenScenarios' check on the golden specs.
func TestClaims(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("claim sweeps skipped under -race (see internal/raceflag)")
	}
	if testing.Short() {
		t.Skip("claim sweeps run seconds")
	}
	files, err := Files("../../scenarios/claims")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no claim specs found")
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			t.Parallel()
			spec, err := Load(file)
			if err != nil {
				t.Fatal(err)
			}
			spec.Repro = false
			out, err := run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range out.Violations {
				t.Error(v)
			}
		})
	}
}

// TestVariantFilter checks the variants list selects table rows by
// slot without touching the metrics (bands can reference any slot).
// The lock workloads run the message-passing program in the chaos slot,
// so "chaos" selects taskq's row labeled mp.
func TestVariantFilter(t *testing.T) {
	for _, tc := range []struct{ app, extra, system string }{
		{"moldyn", "steps: 2\n", "chaos"},
		{"taskq", "", "mp"},
	} {
		t.Run(tc.app, func(t *testing.T) {
			spec, err := Parse([]byte("name: chaos-only\nexperiment: app\napp: " + tc.app +
				"\nn: 64\n" + tc.extra + "procs: [2]\nvariants: [chaos]\n"))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			out, err := run(spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, absent := range []string{" seq ", " tmk ", " tmk-opt "} {
				if strings.Contains(out.Rendered, absent) {
					t.Errorf("rendered output has filtered-out row %q:\n%s", absent, out.Rendered)
				}
			}
			if !strings.Contains(out.Rendered, " "+tc.system+" ") {
				t.Errorf("rendered output missing the %s row:\n%s", tc.system, out.Rendered)
			}
			if _, ok := out.Metrics[tc.app+"/2 procs/tmk/time_s"]; !ok {
				t.Errorf("metrics must keep all slots regardless of variants")
			}
		})
	}
}

// TestLatencySweep checks the latency_us axis actually reaches the
// simulated machine: tripling the wire latency must slow the parallel
// backends and leave the message-free sequential run untouched.
func TestLatencySweep(t *testing.T) {
	spec, err := Parse([]byte(`
name: latency
experiment: app
app: moldyn
n: 64
steps: 2
procs: [2]
sweep:
  axis: latency_us
  values: [85, 255]
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, err := run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fast := out.Metrics["moldyn/latency_us=85, 2 procs/chaos/time_s"]
	slow := out.Metrics["moldyn/latency_us=255, 2 procs/chaos/time_s"]
	if !(slow > fast) {
		t.Errorf("chaos time at 255us (%g) not above 85us (%g)", slow, fast)
	}
	seqFast := out.Metrics["moldyn/latency_us=85, 2 procs/seq/time_s"]
	seqSlow := out.Metrics["moldyn/latency_us=255, 2 procs/seq/time_s"]
	if seqFast != seqSlow {
		t.Errorf("sequential time moved with latency: %g vs %g", seqFast, seqSlow)
	}
}

// TestFailingFixture is the deliberately-failing scenario: the band on
// the sequential speedup cannot hold, and the violation must name the
// offending metric, the expected band, and the observed value.
func TestFailingFixture(t *testing.T) {
	spec, err := Load("testdata/failing.yaml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	out, err := run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.Violations) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(out.Violations), out.Violations)
	}
	v := out.Violations[0]
	if v.Band.Metric != "moldyn/2 procs/seq/speedup" || v.Value != 1 {
		t.Errorf("violation = %+v", v)
	}
	if got, want := v.String(), "metric moldyn/2 procs/seq/speedup = 1 outside band [10, 100]"; got != want {
		t.Errorf("violation string:\n got  %q\n want %q", got, want)
	}
}

// TestUnknownAssertMetric checks a band naming a metric the run never
// produced is an error, not a silent pass.
func TestUnknownAssertMetric(t *testing.T) {
	spec, err := Parse([]byte(`
name: ghost
experiment: app
app: moldyn
n: 64
steps: 2
procs: [2]
assert:
  - metric: moldyn/2 procs/seq/wall_ns
    min: 0
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	_, err = run(spec)
	if err == nil || !strings.Contains(err.Error(), `assertion metric "moldyn/2 procs/seq/wall_ns" was not produced`) {
		t.Fatalf("Run error = %v, want unknown-metric error", err)
	}
}

// TestPresentResultMatchesEngine checks, for every canned experiment
// but memory, that the run service's render path — the request served
// by the runner, stored and decoded as a disk entry, rendered by
// bench.PresentResult — prints exactly the scenario engine's bytes.
// Tiny sizes keep it fast; the shipped CI-size renderings are
// cmd/scenario's goldens.
func TestPresentResultMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every canned experiment")
	}
	for _, tc := range []struct{ name, experiment, params string }{
		{"table1", "table1", "n: 64\n  procs: 2\n  steps: 2"},
		{"table2", "table2", "scale: 2\n  procs: 2\n  steps: 1\n  partners: 8"},
		{"table3", "table3", "n: 256\n  nnz: 4\n  procs: 2\n  steps: 1"},
		// One processor: no backend sends a message, so no ratio of
		// message counts may reach the rendering.
		{"table3-1proc", "table3", "n: 256\n  nnz: 4\n  procs: 1\n  steps: 1"},
		{"table4", "table4", "cities: 5\n  items: 16\n  procs: 2"},
		{"table5", "table5", "procs: 2\n  n: 64\n  nbf: 256\n  spmv: 256\n  moldyn_steps: 2\n  steps: 1"},
		// No memory row: the experiment always runs the N = 4096
		// anecdote. TestEntryCodecRoundTrip (internal/bench) covers its
		// render path on a fixture, TestGoldenScenarios/memory.yaml the
		// engine's rendering.
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse([]byte("name: x\nexperiment: " + tc.experiment + "\nparams:\n  " + tc.params + "\n"))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			r := runner.New(1, cache.New(4))
			out, err := RunCtx(context.Background(), r, spec)
			if err != nil {
				t.Fatalf("RunCtx: %v", err)
			}
			req := spec.Request()
			res, err := r.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			payload, _, err := bench.EncodeEntry(req, res)
			if err != nil {
				t.Fatal(err)
			}
			dreq, dres, _, err := bench.DecodeEntry(req.Key(), payload)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := bench.PresentResult(&buf, dreq, dres); err != nil {
				t.Fatal(err)
			}
			if buf.String() != out.Rendered {
				t.Errorf("PresentResult differs from the engine:\n--- served ---\n%s--- engine ---\n%s",
					buf.String(), out.Rendered)
			}
			for _, bad := range []string{"NaN", "Inf"} {
				if strings.Contains(out.Rendered, bad) {
					t.Errorf("rendering prints %s:\n%s", bad, out.Rendered)
				}
			}
		})
	}
}
