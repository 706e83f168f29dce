// The scenario engine: execute a validated Spec through the shared
// bench run layer (bench.Run via a runner's pool + cache), render the
// structured result through the pure presentation functions, flatten
// the verified results into named metrics, check the assertion bands,
// and (when asked) prove reproducibility — the determinism contract of
// DESIGN.md §7/§10 as a per-scenario switch. With the run/render split
// the repro check is three results, not two runs: the first execution,
// a second Do that must be a pure cache hit, and one uncached
// verification re-run proving the simulation (not the cache) is what
// reproduces.
package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Registry metrics (DESIGN.md §13): how many scenarios ran, keyed by
// experiment, and how many produced band violations. Operational only —
// never part of determinism-checked output.
var (
	mRuns = obs.Default().CounterVec("repro_scenario_runs_total",
		"Scenario executions, by experiment.", "experiment")
	mViolations = obs.Default().Counter("repro_scenario_violations_total",
		"Assertion-band violations across all scenario runs.")
)

// Violation is one assertion band the run landed outside of.
type Violation struct {
	Band  Band
	Value float64
}

// String reports the offending metric, the expected band, and the
// observed value.
func (v Violation) String() string {
	return fmt.Sprintf("metric %s = %s outside band %s",
		v.Band.Metric, fmtMetric(v.Value), v.Band.Interval())
}

// Outcome is one executed scenario: the rendered table text (identical
// bytes to the corresponding command), the flattened metrics, and any
// band violations. A non-empty Violations is the caller's exit-status
// decision, not an error — the run itself succeeded.
type Outcome struct {
	Spec       *Spec
	Rendered   string
	Metrics    map[string]float64
	Violations []Violation
	// Trace is the Chrome trace-event JSON recorded when the spec set
	// trace: true (nil otherwise); byte-identical across runs and
	// worker counts like every other determinism-checked artifact.
	Trace []byte
}

// MetricsText renders the metrics one per line, sorted, with
// shortest-round-trip float formatting — the canonical byte-diffable
// form the repro check and the determinism stress compare.
func (o *Outcome) MetricsText() string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(o.Metrics)) {
		fmt.Fprintf(&b, "%s = %s\n", k, fmtMetric(o.Metrics[k]))
	}
	return b.String()
}

func fmtMetric(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Request returns the run request the spec resolved to at load time:
// canned params fully resolved against the schema defaults
// (bench.Request), so a spec relying on a default and one spelling it
// out share a content address. Variants are presentation (a row
// filter) and never reach the request. The request shares its maps and
// slices with the spec; treat it as read-only.
func (s *Spec) Request() bench.RunRequest {
	return s.RunRequest
}

// RunCtx executes the spec through the given runner: one Do (cache or
// pool), then — when the spec asks for the repro check — a second Do
// that exercises the cache plus one uncached verification re-run, all
// three rendered and byte-diffed. Finally the assertion bands are
// checked against the metrics.
func RunCtx(ctx context.Context, r *runner.Runner, spec *Spec) (*Outcome, error) {
	req := spec.Request()
	mRuns.With(spec.Experiment).Inc()
	res, err := r.Do(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	out, err := outcomeOf(spec, req, res)
	if err != nil {
		return nil, err
	}
	if spec.Repro {
		// The cached pass: a repeated request must be served from the
		// result cache (or re-executed if evicted) and render the same
		// bytes; the uncached pass re-simulates from scratch, which is
		// the §7/§10 bit-reproducibility claim itself.
		for _, pass := range []struct {
			name string
			do   func(context.Context, bench.RunRequest) (*bench.RunResult, error)
		}{
			{"cached", r.Do},
			{"uncached", r.DoUncached},
		} {
			again, err := pass.do(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: repro rerun failed: %w", spec.Name, err)
			}
			o2, err := outcomeOf(spec, req, again)
			if err != nil {
				return nil, err
			}
			if out.Rendered != o2.Rendered {
				return nil, fmt.Errorf("scenario %q: not reproducible: rendered output differs across runs", spec.Name)
			}
			if a, b := out.MetricsText(), o2.MetricsText(); a != b {
				return nil, fmt.Errorf("scenario %q: not reproducible: metrics differ across runs:\n--- run 1 ---\n%s--- run 2 (%s) ---\n%s",
					spec.Name, a, pass.name, b)
			}
			if !bytes.Equal(out.Trace, o2.Trace) {
				return nil, fmt.Errorf("scenario %q: not reproducible: trace bytes differ across runs (%s pass)",
					spec.Name, pass.name)
			}
		}
	}
	for _, band := range spec.Assert {
		v, ok := out.Metrics[band.Metric]
		if !ok {
			return nil, fmt.Errorf("scenario %q: assertion metric %q was not produced by the run (it has %d metrics; see `scenario run -metrics`)",
				spec.Name, band.Metric, len(out.Metrics))
		}
		if (band.Min != nil && v < *band.Min) || (band.Max != nil && v > *band.Max) {
			out.Violations = append(out.Violations, Violation{Band: band, Value: v})
		}
	}
	return out, nil
}

// outcomeOf renders one structured result into an outcome — a pure
// function, so equal results always yield equal bytes. Canned
// experiments render through bench.PresentResult (the run service's
// render path); app scenarios carry their own title and variant filter.
func outcomeOf(spec *Spec, req bench.RunRequest, res *bench.RunResult) (*Outcome, error) {
	var buf bytes.Buffer
	if spec.Experiment == "app" {
		presentApp(&buf, spec, res)
	} else if err := bench.PresentResult(&buf, req, res); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	return &Outcome{Spec: spec, Rendered: buf.String(), Metrics: res.Metrics, Trace: res.Trace}, nil
}

// presentApp renders the generic app experiment: one table whose rows
// are the spec's variant selection over every verified configuration.
// The row/table formatting is shared with the run service's render
// endpoint (bench.PresentAppRows); only the title and the variant
// filter are scenario-level presentation state.
func presentApp(w io.Writer, spec *Spec, res *bench.RunResult) {
	want := map[string]bool{}
	for _, v := range spec.Variants {
		want[v] = true
	}
	title := fmt.Sprintf("Scenario %s: %s (N=%d).", spec.Name, spec.App, spec.N)
	bench.PresentAppRows(w, title, want, res)
}
