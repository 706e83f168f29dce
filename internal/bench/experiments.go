// The canned experiments (DESIGN.md §12): the paper's Tables 1-2, the
// repo's Tables 3-5, and the §9 memory sweep, each described once —
// parameter schema with defaults, run list, and presenter. Run,
// PresentResult, Request, and the scenario engine (through Canned) all
// dispatch through the experiments table below; "app" is the one
// experiment outside it (runAppGrid / PresentAppRows).
package bench

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Experiment is the read-only view of one canned experiment that
// callers outside the package validate against.
type Experiment struct {
	// Params is the parameter schema: every accepted name with its
	// default. Shared; callers must not modify it.
	Params map[string]int
	// Traceable reports whether the experiment honors RunRequest.Trace.
	Traceable bool
	// SweepAxis names the one sweep axis the experiment accepts (its
	// values travel as RunRequest.BudgetSweepKB); empty for none.
	SweepAxis string
}

// experiment is one entry of the descriptor table.
type experiment struct {
	Experiment
	// run fills res.Apps or res.Mem from the resolved request.
	run func(ctx context.Context, tr *obs.Trace, req RunRequest, res *RunResult) error
	// present formats a result from the resolved parameters.
	present func(w io.Writer, p map[string]int, res *RunResult)
}

// experiments is the descriptor table. Each schema's defaults are the
// paper-scale configuration; the shipped scenarios/*.yaml specs
// override them down to CI size.
var experiments = map[string]experiment{
	"table1": {
		Experiment: Experiment{Params: map[string]int{"n": 4096, "procs": 8, "steps": 40}, Traceable: true},
		run:        runList(table1Items),
		present:    presentTable1,
	},
	"table2": {
		Experiment: Experiment{Params: map[string]int{"scale": 16, "procs": 8, "steps": 10, "partners": 100}, Traceable: true},
		run:        runList(table2Items),
		present:    presentTable2,
	},
	"table3": {
		Experiment: Experiment{Params: map[string]int{"n": 16384, "nnz": 24, "procs": 8, "steps": 12}, Traceable: true},
		run:        runList(table3Items),
		present:    presentTable3,
	},
	"table4": {
		Experiment: Experiment{Params: map[string]int{"cities": 11, "items": 2048, "procs": 8,
			"depth": 3, "batch": 4, "item_batch": 8}, Traceable: true},
		run:     runList(table4Items),
		present: presentTable4,
	},
	"table5": {
		Experiment: Experiment{Params: map[string]int{"procs": 8, "budget_kb": 12, "n": 512,
			"nbf": 2048, "spmv": 4096, "moldyn_steps": 10, "steps": 4}, Traceable: true},
		run:     runList(table5Items),
		present: presentTable5,
	},
	// The memory sweep stays untraced: its grids re-run one backend
	// many times, each a separate CHAOS episode (DESIGN.md §13).
	"memory": {
		Experiment: Experiment{Params: map[string]int{"n": 1024, "procs": 8}, SweepAxis: "table_budget_kb"},
		run: func(ctx context.Context, _ *obs.Trace, req RunRequest, res *RunResult) (err error) {
			res.Mem, err = runMemorySweep(ctx, req.Params["n"], req.Params["procs"], req.BudgetSweepKB)
			return err
		},
		present: presentMemorySweep,
	},
}

// Canned looks up a canned experiment by name; false for "app" and
// unknown names.
func Canned(name string) (Experiment, bool) {
	e, ok := experiments[name]
	return e.Experiment, ok
}

// Request builds the canonical request of a canned experiment: params
// overrides its schema defaults, and every schema key is filled in, so
// a request relying on a default and one spelling it out share a
// content address. Unknown experiments, unknown params, and negative
// values are rejected.
func Request(name string, params map[string]int) (RunRequest, error) {
	e, ok := experiments[name]
	if !ok {
		names := slices.AppendSeq([]string{"app"}, maps.Keys(experiments))
		slices.Sort(names)
		last := len(names) - 1
		return RunRequest{}, fmt.Errorf("unknown experiment %q (want %s, or %s)",
			name, strings.Join(names[:last], ", "), names[last])
	}
	for _, k := range slices.Sorted(maps.Keys(params)) {
		if _, ok := e.Params[k]; !ok {
			return RunRequest{}, fmt.Errorf("experiment %s does not take param %q (takes: %v)",
				name, k, slices.Sorted(maps.Keys(e.Params)))
		}
		if params[k] < 0 {
			return RunRequest{}, fmt.Errorf("param %q must be non-negative (got %d)", k, params[k])
		}
	}
	resolved := make(map[string]int, len(e.Params))
	for k, def := range e.Params {
		resolved[k] = def
		if v, ok := params[k]; ok {
			resolved[k] = v
		}
	}
	return RunRequest{Experiment: name, Params: resolved}, nil
}

// runList adapts a table's run list to the descriptor's run signature.
func runList(items func(p map[string]int) []runItem) func(context.Context, *obs.Trace, RunRequest, *RunResult) error {
	return func(ctx context.Context, tr *obs.Trace, req RunRequest, res *RunResult) (err error) {
		res.Apps, err = runItems(ctx, tr, items(req.Params))
		return err
	}
}

// size names one problem size of a table row group.
type size struct {
	label string
	n     int
}

// sized builds one run item per size of a single app's row groups.
func sized(app string, cfg apps.Config, sizes ...size) []runItem {
	items := make([]runItem, 0, len(sizes))
	for _, sz := range sizes {
		c := cfg
		c.N = sz.n
		items = append(items, runItem{App: app, Label: sz.label, Cfg: c})
	}
	return items
}

// ---- Run lists -----------------------------------------------------------

// Table 1: moldyn with the interaction list updated every 20, 15, and
// 11 steps.
func table1Items(p map[string]int) []runItem {
	cfg := apps.Config{N: p["n"], Procs: p["procs"], Steps: p["steps"]}
	var items []runItem
	for _, u := range []int{20, 15, 11} {
		items = append(items, runItem{App: "moldyn", Label: fmt.Sprintf("Every %d iterations", u),
			Cfg: cfg.WithKnob("update_every", u)})
	}
	return items
}

// Table 2: the nbf kernel at three sizes, including the misaligned
// false-sharing-inducing x1000 one.
func table2Items(p map[string]int) []runItem {
	s := p["scale"]
	cfg := apps.Config{Procs: p["procs"], Steps: p["steps"]}.WithKnob("partners", p["partners"])
	return sized("nbf", cfg,
		size{fmt.Sprintf("%d x 1024", s), s * 1024},
		size{fmt.Sprintf("%d x 1000", s), s * 1000},
		size{fmt.Sprintf("%d x 1024", s/2), s / 2 * 1024})
}

// Table 3: spmv at n and n/2, then the unstructured mesh at n/2 and n/4
// (a mesh node carries more state than a matrix row). The nnz knob
// applies to spmv only.
func table3Items(p map[string]int) []runItem {
	n := p["n"]
	ucfg := apps.Config{Procs: p["procs"], Steps: p["steps"]}
	cfg := ucfg.WithKnob("nnz_row", p["nnz"])
	return append(
		sized("spmv", cfg,
			size{fmt.Sprintf("SPMV N = %d", n), n},
			size{fmt.Sprintf("SPMV N = %d", n/2), n / 2}),
		sized("unstruct", ucfg,
			size{fmt.Sprintf("Unstruct N = %d", n/2), n / 2},
			size{fmt.Sprintf("Unstruct N = %d", n/4), n / 4})...)
}

// Table 4: the lock-based workloads, branch-and-bound TSP and the
// migratory-counter task queue.
func table4Items(p map[string]int) []runItem {
	tspCfg := apps.Config{Procs: p["procs"]}.WithKnob("depth", p["depth"]).WithKnob("batch", p["batch"])
	taskqCfg := apps.Config{Procs: p["procs"]}.WithKnob("batch", p["item_batch"])
	return append(
		sized("tsp", tspCfg, size{fmt.Sprintf("TSP, %d cities", p["cities"]), p["cities"]}),
		sized("taskq", taskqCfg, size{fmt.Sprintf("TaskQ, %d items", p["items"]), p["items"]})...)
}

// Table 5: each app's four backends under a per-processor
// translation-table budget (0 = no budget, app-default organizations).
func table5Items(p map[string]int) []runItem {
	items := []runItem{
		{App: "moldyn", Label: fmt.Sprintf("moldyn, %d mol", p["n"]),
			Cfg: apps.Config{N: p["n"], Steps: p["moldyn_steps"]}},
		{App: "nbf", Label: fmt.Sprintf("nbf, %d mol", p["nbf"]),
			Cfg: apps.Config{N: p["nbf"], Steps: p["steps"]}.WithKnob("partners", 40)},
		// far_per_row 0: the pure-banded matrix whose localized working
		// set is what the paged organization exists for.
		{App: "spmv", Label: fmt.Sprintf("spmv, %d rows", p["spmv"]),
			Cfg: apps.Config{N: p["spmv"], Steps: p["steps"]}.WithKnob("far_per_row", 0)},
	}
	for i := range items {
		items[i].Cfg.Procs = p["procs"]
		if kb := p["budget_kb"]; kb > 0 {
			items[i].Cfg = items[i].Cfg.WithKnob("table_budget_kb", kb)
		}
	}
	return items
}

// ---- Presenters ----------------------------------------------------------
//
// Pure functions of the resolved parameters and an earlier Run's
// result, so a cached result renders byte-for-byte the same as a cold
// one; cmd/scenario/testdata holds the golden renderings.

const verified = "\nAll parallel backends verified bit-identical to the sequential program."

// presentRows prints a rendered table, the verification line, and one
// claim line per configuration.
func presentRows(w io.Writer, table string, all []*AppResults, claim func(w io.Writer, r *AppResults)) {
	fmt.Fprint(w, table)
	fmt.Fprintln(w, verified)
	fmt.Fprintln(w)
	for _, r := range all {
		claim(w, r)
	}
}

// fmtN renders a config value for a table title; zero means the app's
// default was used, which the title must not misreport as 0.
func fmtN(v int, unit string) string {
	if v > 0 {
		return fmt.Sprintf("%d %s", v, unit)
	}
	return "default " + unit
}

func presentTable1(w io.Writer, p map[string]int, res *RunResult) {
	title := fmt.Sprintf(
		"Table 1: Moldyn - %d processor results (N=%d, %s). The interaction list is updated at varying intervals.",
		p["procs"], p["n"], fmtN(p["steps"], "steps"))
	presentRows(w, appLayout.render(title, tableRows(res.Apps, paperSystems[1:])), res.Apps, func(w io.Writer, r *AppResults) {
		fmt.Fprintf(w, "%-36s inspector %.2f s/proc, Validate scan %.2f s, opt vs CHAOS %+.0f%%, opt vs base %+.0f%%\n",
			r.Config, r.Chaos.Detail["inspector_s"], r.Opt.Detail["scan_s"],
			100*(r.Chaos.TimeSec-r.Opt.TimeSec)/r.Chaos.TimeSec,
			100*(r.Base.TimeSec-r.Opt.TimeSec)/r.Base.TimeSec)
	})
}

func presentTable2(w io.Writer, p map[string]int, res *RunResult) {
	title := fmt.Sprintf("Table 2: NBF Kernel - %d processor results (%s, %s).",
		p["procs"], fmtN(p["partners"], "partners/molecule"), fmtN(p["steps"], "timed steps"))
	presentRows(w, appLayout.render(title, tableRows(res.Apps, paperSystems[1:])), res.Apps, func(w io.Writer, r *AppResults) {
		fmt.Fprintf(w, "%-28s inspector %.2f s/proc (untimed), Validate scan %.3f s, opt vs CHAOS %+.0f%%, opt vs base %+.0f%%\n",
			r.Config, r.Chaos.Detail["inspector_s"], r.Opt.Detail["scan_s"],
			100*(r.Chaos.TimeSec-r.Opt.TimeSec)/r.Chaos.TimeSec,
			100*(r.Base.TimeSec-r.Opt.TimeSec)/r.Base.TimeSec)
	})
}

func presentTable3(w io.Writer, p map[string]int, res *RunResult) {
	title := fmt.Sprintf("Table 3: SPMV and Unstruct - %d processor results (%s, %s).",
		p["procs"], fmtN(p["nnz"], "nonzeros/row"), fmtN(p["steps"], "timed sweeps"))
	presentRows(w, appLayout.render(title, tableRows(res.Apps, paperSystems)), res.Apps, func(w io.Writer, r *AppResults) {
		// A 1-processor run sends no data messages; there is no ratio
		// to print then.
		msgClause := "messages n/a (none sent)"
		if r.Opt.Messages > 0 {
			msgClause = fmt.Sprintf("%.1fx fewer messages", float64(r.Base.Messages)/float64(r.Opt.Messages))
		}
		fmt.Fprintf(w, "%-28s inspector %.3f s/proc (untimed), Validate scan %.3f s, opt vs base: %s, %.0f%% less time\n",
			r.Config, r.Chaos.Detail["inspector_s"], r.Opt.Detail["scan_s"], msgClause,
			100*(r.Base.TimeSec-r.Opt.TimeSec)/r.Base.TimeSec)
	})
}

func presentTable4(w io.Writer, p map[string]int, res *RunResult) {
	title := fmt.Sprintf(
		"Table 4: Lock-based workloads - %d processor results (branch-and-bound TSP; migratory task queue).",
		p["procs"])
	presentRows(w, lockLayout.render(title, tableRows(res.Apps, lockSystems)), res.Apps, func(w io.Writer, r *AppResults) {
		base, opt := r.Base.LockTotal(), r.Opt.LockTotal()
		// All grants are idle on an uncontended (e.g. 1-processor)
		// cluster; there is no wait to compare then.
		waitClause := "wait n/a (uncontended)"
		if base.WaitUS > 0 {
			waitClause = fmt.Sprintf("%+.0f%% wait", 100*(opt.WaitUS-base.WaitUS)/base.WaitUS)
		}
		fmt.Fprintf(w, "%-28s Tmk vs PVM %+.0f%% time; batching: %.1fx fewer acquires, %s, %.1fx fewer messages\n",
			r.Config, 100*(r.Base.TimeSec-r.Chaos.TimeSec)/r.Chaos.TimeSec,
			float64(base.Acquires)/float64(opt.Acquires), waitClause,
			float64(r.Base.Messages)/float64(r.Opt.Messages))
	})
}

func presentTable5(w io.Writer, p map[string]int, res *RunResult) {
	budget := "no table budget (app-default organizations)"
	if kb := p["budget_kb"]; kb > 0 {
		budget = fmt.Sprintf("table budget %d KB/proc, organization policy-selected", kb)
	}
	title := fmt.Sprintf("Table 5: Simulated per-processor memory footprint - %d processor results (%s).",
		p["procs"], budget)
	presentRows(w, memLayout.render(title, tableRows(res.Apps, paperSystems)), res.Apps, func(w io.Writer, r *AppResults) {
		fmt.Fprintf(w, "%-28s CHAOS table: %-18s CHAOS peak %7.1f KB/proc, Tmk opt peak %7.1f KB/proc\n",
			r.Config, r.Chaos.TableOrg, r.Chaos.MaxPeakMB()*1e3, r.Opt.MaxPeakMB()*1e3)
	})
}

// presentMemorySweep formats the §9 capacity sweep: both budget grids
// and the anecdote. The table_budget_kb axis points
// (res.Mem.Budget) are metrics-only and deliberately unrendered, so a
// budget-swept scenario renders byte-identically to an unswept one.
func presentMemorySweep(w io.Writer, p map[string]int, res *RunResult) {
	n, d := p["n"], res.Mem
	fmt.Fprintf(w, "S9: memory budget vs translation-table organization (%d procs)\n\n", p["procs"])

	fmt.Fprintf(w, "moldyn N=%d (whole-table working set)\n", n)
	fmt.Fprintf(w, "%14s%16s%14s%14s%14s\n", "budget (KB)", "plan", "ttable msgs", "ttable (MB)", "peak/proc KB")
	for _, row := range d.Moldyn {
		fmt.Fprintf(w, "%14d%16s%14d%14.2f%14.1f\n",
			row.BudgetKB, row.Plan, row.TtableMsgs, row.TtableMB, row.PeakKB)
	}

	// spmv's inspector runs once, before the timed window, so the
	// columns here are storage, not traffic: the charged table bytes
	// track the budget as the cache bound shrinks.
	fmt.Fprintf(w, "\nspmv N=%d, banded (localized working set)\n", 4*n)
	fmt.Fprintf(w, "%14s%16s%14s%14s\n", "budget (KB)", "plan", "table KB/proc", "peak/proc KB")
	for _, row := range d.Spmv {
		fmt.Fprintf(w, "%14d%16s%14.1f%14.1f\n",
			row.BudgetKB, row.Plan, row.TableKB, row.PeakKB)
	}
	fmt.Fprintln(w, "\nShrinking the budget forces replicated -> (paged, if the working set")
	fmt.Fprintln(w, "fits) -> distributed; a cache below the working set would thrash, so")
	fmt.Fprintln(w, "the policy degrades straight to the segment-only table.")

	rep := d.Anecdote
	ap := anecdoteParams()
	fmt.Fprintf(w, "\nThe moldyn anecdote (paper-scale configuration):\n")
	fmt.Fprintf(w, "  N=%d, %d procs, %d steps, list updated every %d; table budget %d KB/proc\n",
		ap.N, ap.Procs, ap.Steps, ap.UpdateEvery, mem.PaperTableBudget>>10)
	fmt.Fprintf(w, "  policy: replicated table (%d KB) rejected -> %s\n",
		mem.ReplicatedBytes(ap.N)>>10, rep.Plan)
	fmt.Fprintf(w, "  inspector translation traffic: %.1f MB in %d messages (paper: 85 MB in 878)\n",
		rep.TtableMB, rep.TtableMsgs)
	fmt.Fprintf(w, "  peak footprint %.1f KB/proc, simulated time %.1f s\n", rep.PeakKB, rep.TimeSec)
}
