// Package bench assembles the paper's evaluation tables (§5): it runs
// the sequential, CHAOS, base-TreadMarks, and optimized-TreadMarks
// backends over the configured workloads, verifies that all backends
// produce bit-identical results, and formats rows exactly like Tables
// 1-3 (execution time, speedup, message count, data volume).
//
// The harness is application-agnostic: workloads are built and run
// through the internal/apps registry, so a new application only needs to
// self-register a factory to get a table. The blank imports below link
// every first-class app into any binary that uses the harness.
package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/apps"

	// Register the first-class applications.
	_ "repro/internal/apps/moldyn"
	_ "repro/internal/apps/nbf"
	_ "repro/internal/apps/spmv"
	_ "repro/internal/apps/taskq"
	_ "repro/internal/apps/tsp"
	_ "repro/internal/apps/unstruct"
)

// AppResults holds one configuration's verified backend runs for any
// registered application. Config is the decorated row-group heading the
// tables print; Label is the undecorated spec label the scenario
// engine's metric keys are built from.
type AppResults struct {
	App    string
	Label  string
	Config string
	*apps.VariantSet
}

// RunAppCtx builds the named registered application's workload from
// cfg, executes all four backends, and verifies bit-exact agreement.
// apps.RunAll runs the backends in two lanes (one when cfg is traced)
// and each lane checks the context before each backend, so an aborted
// run never returns a partially-verified result.
func RunAppCtx(ctx context.Context, name string, cfg apps.Config, label string) (*AppResults, error) {
	w, err := apps.New(name, cfg)
	if err != nil {
		return nil, err
	}
	vs, err := apps.RunAll(ctx, w)
	if err != nil {
		return nil, err
	}
	return &AppResults{
		App:        name,
		Label:      label,
		Config:     fmt.Sprintf("%s (seq = %.1f s)", label, vs.Seq.TimeSec),
		VariantSet: vs,
	}, nil
}

// Metrics flattens verified results into the named metric values the
// scenario engine asserts bands on and byte-diffs across runs. Keys are
// "<app>/<label>/<variant>/<field>" with variant one of seq, chaos,
// tmk, tmk-opt (apps.Slots — for the lock workloads the chaos slot is
// the message-passing program) and field one of time_s,
// speedup, messages, data_mb, peak_kb plus every Detail entry the
// backend recorded (inspector_s, scan_s, lock_*, per-category traffic).
func Metrics(all []*AppResults) map[string]float64 {
	out := map[string]float64{}
	for _, res := range all {
		for i, r := range res.All() {
			prefix := res.App + "/" + res.Label + "/" + apps.Slots[i] + "/"
			out[prefix+"time_s"] = r.TimeSec
			out[prefix+"speedup"] = r.Speedup
			out[prefix+"messages"] = float64(r.Messages)
			out[prefix+"data_mb"] = r.DataMB
			out[prefix+"peak_kb"] = r.MaxPeakMB() * 1e3
			for k, v := range r.Detail {
				out[prefix+k] = v
			}
		}
	}
	return out
}

// ---- Results tables: one layout per table, rendered over apps.Results ----

// column is one results-table column after Configuration and System:
// its heading, the heading's and the cell's formats (each carrying the
// separator before it), and the cell's value read off a result.
type column struct {
	head, headFmt, cellFmt string
	cell                   func(r *apps.Result) any
}

// layout is one results table's shape: the widths of the two label
// columns, the width of the rule under the heading, and the columns.
type layout struct {
	cfgW, sysW, rule int
	cols             []column
}

// row is one printed line: a configuration label (blanked when it
// repeats the previous row's), a system label, and the result.
type row struct {
	config, system string
	r              *apps.Result
}

// render prints the title, the heading, the rule and the rows.
func (l *layout) render(title string, rows []row) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-*s %-*s", l.cfgW, "Configuration", l.sysW, "System")
	for _, c := range l.cols {
		fmt.Fprintf(&b, c.headFmt, c.head)
	}
	b.WriteString("\n" + strings.Repeat("-", l.rule) + "\n")
	last := ""
	for _, rw := range rows {
		cfg := rw.config
		if cfg == last {
			cfg = ""
		} else {
			last = rw.config
		}
		fmt.Fprintf(&b, "%-*s %-*s", l.cfgW, cfg, l.sysW, rw.system)
		for _, c := range l.cols {
			fmt.Fprintf(&b, c.cellFmt, c.cell(rw.r))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// appLayout is Tables 1-3 and the app experiment: time, speedup,
// message count and data volume.
var appLayout = layout{cfgW: 34, sysW: 14, rule: 92, cols: []column{
	{"Time (s)", " %10s", " %10.2f", func(r *apps.Result) any { return r.TimeSec }},
	{"Speedup", " %8s", " %8.2f", func(r *apps.Result) any { return r.Speedup }},
	{"Messages", " %10s", " %10d", func(r *apps.Result) any { return r.Messages }},
	{"Data (MB)", " %10s", " %10.1f", func(r *apps.Result) any { return r.DataMB }},
}}

// lockLayout is Table 4: the common columns plus the measured window's
// lock totals (acquire count, simulated wait and hold seconds, and the
// write-notice kilobytes shipped on lock grants), read from the Detail
// entries Episode.Finish derives from the lock grid once per run.
var lockLayout = layout{cfgW: 30, sysW: 13, rule: 122, cols: []column{
	{"Time (s)", " %9s", " %9.3f", func(r *apps.Result) any { return r.TimeSec }},
	{"Speedup", " %8s", " %8.2f", func(r *apps.Result) any { return r.Speedup }},
	{"Messages", " %9s", " %9d", func(r *apps.Result) any { return r.Messages }},
	{"Data (MB)", " %9s", " %9.2f", func(r *apps.Result) any { return r.DataMB }},
	{"Lock acq", " %8s", " %8d", func(r *apps.Result) any { return int64(r.Detail["lock_acquires"]) }},
	{"Wait (s)", " %8s", " %8.3f", func(r *apps.Result) any { return r.Detail["lock_wait_s"] }},
	{"Hold (s)", " %8s", " %8.3f", func(r *apps.Result) any { return r.Detail["lock_hold_s"] }},
	{"Grant (KB)", " %10s", " %10.1f", func(r *apps.Result) any { return r.Detail["lock_grant_kb"] }},
}}

// system is one printed row per configuration: its label and the
// apps.Slots slot it reads.
type system struct{ label, slot string }

// The tables' row lists, in print order. Tables 1 and 2 fold the
// sequential run into the configuration label; the lock workloads run
// the message-passing master/worker program in the chaos slot and the
// batched-claim TreadMarks variant in the tmk-opt slot.
var (
	paperSystems = []system{{"Sequential", "seq"}, {"CHAOS", "chaos"}, {"Tmk base", "tmk"}, {"Tmk optimized", "tmk-opt"}}
	lockSystems  = []system{{"Sequential", "seq"}, {"PVM m/w", "chaos"}, {"Tmk base", "tmk"}, {"Tmk batched", "tmk-opt"}}
)

// tableRows lists each configuration's systems in order, under its
// decorated configuration label.
func tableRows(all []*AppResults, systems []system) []row {
	rows := make([]row, 0, len(all)*len(systems))
	for _, res := range all {
		vs := res.All()
		for _, s := range systems {
			rows = append(rows, row{res.Config, s.label, vs[slices.Index(apps.Slots, s.slot)]})
		}
	}
	return rows
}
