// The run layer (DESIGN.md §12): every experiment the repo knows —
// the canned experiments (experiments.go) and the generic
// registered-application grid — executes through one canonical entry
// point, Run(ctx, RunRequest), returning a structured RunResult with
// no io.Writer in sight. Rendering is a separate, pure pass over the
// result (PresentResult), so the same numbers can be printed, asserted,
// cached, or served without re-simulating.
//
// A RunRequest has a canonical byte encoding (Canonical) and a
// SHA-256 content address (Key). Because every simulated number is a
// pure function of its configuration (§7/§10 determinism), two
// requests with equal keys have bit-identical results — the cache
// coherence argument internal/cache and internal/runner build on.
// Presentation-only choices (variant row filters, scenario titles)
// are deliberately absent from the request so they cannot fragment
// the cache.
package bench

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/spmv"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RequestVersion is the canonical-encoding schema version; it moves
// only with a breaking change to the encoding. RequestVersionPerturb
// is the extended schema carrying a machine perturbation block. The
// version in the canonical header is derived from content: a request
// with no perturbation always encodes as runrequest/v1 —
// byte-for-byte what pre-perturbation builds produced, so existing
// content addresses and goldens stay valid —
// and a perturbed request always encodes as runrequest/v2.
const (
	RequestVersion        = 1
	RequestVersionPerturb = 2
)

// SweepAxis names one swept axis of an app-experiment request; the
// run grid is the cross product of the values and the procs list.
type SweepAxis struct {
	Axis   string
	Values []int
}

// RunRequest canonically encodes one experiment execution: which
// experiment, at what sizes, on how many simulated processors, with
// which knobs and machine overrides. Build canned requests with
// Request (or the scenario engine's Spec.Request) so Params is fully
// resolved — the encoding hashes exactly what is in the struct, and a
// default left implicit would alias two different runs under one key.
type RunRequest struct {
	// Experiment is table1..table5, memory, or app.
	Experiment string
	// Params carries a canned experiment's fully-resolved parameters
	// (its schema in experiments.go).
	Params map[string]int

	// The app-experiment fields (mirroring scenario.Spec).
	App     string
	N       int
	Steps   int
	Seed    int64
	Procs   []int
	Knobs   map[string]int
	Machine apps.Machine
	Sweep   *SweepAxis

	// BudgetSweepKB extends the memory experiment with the
	// table_budget_kb axis: the anecdote configuration re-planned at
	// each per-processor budget; a point whose plan matches a run
	// already made reuses it (metrics only; the rendered sweep text is
	// unchanged).
	BudgetSweepKB []int

	// Trace asks the run to record a deterministic simulated-event
	// trace (RunResult.Trace, DESIGN.md §13). It is deliberately NOT
	// part of the canonical encoding: the simulated numbers are
	// identical with or without it. The runner
	// compensates by bypassing the result cache for traced requests —
	// a cache hit cannot replay a side effect.
	Trace bool `json:"-"`
}

// Canonical returns the request's canonical byte encoding: a
// versioned header and every field in a fixed order with sorted map
// keys, so two structurally-equal requests encode identically no
// matter how they were built. The encoding is write-only: it is hashed
// into the content address and never parsed back (the disk tier keeps
// the request as JSON beside its result, EncodeEntry).
func (r RunRequest) Canonical() []byte {
	return r.AppendCanonical(nil)
}

// AppendCanonical appends the canonical encoding (Canonical) to dst.
// It formats with strconv alone, so into a buffer with room it
// allocates nothing.
func (r RunRequest) AppendCanonical(b []byte) []byte {
	v := RequestVersion
	if r.Machine.Perturbed() {
		v = RequestVersionPerturb
	}
	b = strconv.AppendInt(append(b, "runrequest/v"...), int64(v), 10)
	b = appendString(b, "\nexperiment=", r.Experiment)
	var keys [16]string
	for _, k := range sortedKeys(keys[:0], r.Params) {
		b = appendInt(appendString(b, "\nparam.", k), "=", int64(r.Params[k]))
	}
	b = appendString(b, "\napp=", r.App)
	b = appendInt(b, "\nn=", int64(r.N))
	b = appendInt(b, "\nsteps=", int64(r.Steps))
	b = appendInt(b, "\nseed=", r.Seed)
	b = appendInts(append(b, "\nprocs="...), r.Procs)
	for _, k := range sortedKeys(keys[:0], r.Knobs) {
		b = appendInt(appendString(b, "\nknob.", k), "=", int64(r.Knobs[k]))
	}
	b = appendInt(b, "\nmachine.latency_us=", int64(r.Machine.LatencyUS))
	b = appendInt(b, "\nmachine.bandwidth_mbs=", int64(r.Machine.BandwidthMBs))
	if r.Machine.Perturbed() {
		pert := r.Machine.Perturb
		if len(pert.CPUFactor) > 0 {
			// The shortest round-tripping form ('g'/-1): one float
			// value, one spelling.
			b = append(b, "\nperturb.cpu="...)
			for i, f := range pert.CPUFactor {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendFloat(b, f, 'g', -1, 64)
			}
		}
		if pert.JitterUS != 0 {
			b = strconv.AppendFloat(append(b, "\nperturb.jitter_us="...), pert.JitterUS, 'g', -1, 64)
		}
		if pert.JitterSeed != 0 {
			b = strconv.AppendUint(append(b, "\nperturb.jitter_seed="...), pert.JitterSeed, 10)
		}
		var buf [8]sim.LinkPerturb
		links := append(buf[:0], pert.Links...)
		slices.SortStableFunc(links, func(a, b sim.LinkPerturb) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
		})
		// Link costs are integral in every spec; 'f' spells them as
		// the integers they are (1e6 stays 1000000, not 1e+06).
		for _, l := range links {
			if l.LatencyUS != 0 {
				b = appendLink(b, l, ".latency_us=", l.LatencyUS)
			}
			if l.BytesPerUS != 0 {
				b = appendLink(b, l, ".bandwidth_mbs=", l.BytesPerUS)
			}
		}
	}
	if r.Sweep != nil {
		b = appendString(b, "\nsweep.axis=", r.Sweep.Axis)
		b = appendInts(append(b, "\nsweep.values="...), r.Sweep.Values)
	}
	if len(r.BudgetSweepKB) > 0 {
		b = appendInts(append(b, "\nbudget_sweep_kb="...), r.BudgetSweepKB)
	}
	return append(b, '\n')
}

// Key returns the request's content address: the SHA-256 of the
// canonical encoding. A service-size request encodes into the stack
// buffer, so keying allocates nothing.
func (r RunRequest) Key() cache.Key {
	var buf [512]byte
	return cache.KeyOf(r.AppendCanonical(buf[:0]))
}

// sortedKeys appends m's keys to dst in sorted order.
func sortedKeys(dst []string, m map[string]int) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

func appendString(b []byte, prefix, s string) []byte {
	return append(append(b, prefix...), s...)
}

func appendInt(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

// appendInts appends vs comma-separated.
func appendInts(b []byte, vs []int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func appendLink(b []byte, l sim.LinkPerturb, field string, v float64) []byte {
	b = appendInt(b, "\nperturb.link.", int64(l.From))
	b = appendInt(b, "-", int64(l.To))
	return strconv.AppendFloat(append(b, field...), v, 'f', -1, 64)
}

// RunResult holds one experiment's structured numbers: the verified
// per-configuration backend runs, the memory experiment's grids, and
// the flattened metrics the scenario engine asserts bands on. Results
// are shared through the cache; treat them as immutable.
type RunResult struct {
	Experiment string
	// Apps is the verified per-configuration results, in run order
	// (every experiment but memory).
	Apps []*AppResults
	// Mem is the memory experiment's structured sweep data.
	Mem *MemSweepData
	// Metrics is the flattened metric map (bench.Metrics for the app
	// experiments, the anecdote/budget metrics for memory).
	Metrics map[string]float64
	// Trace is the rendered Chrome trace-event JSON when the request
	// asked for one (nil otherwise). Byte-identical run to run: every
	// timestamp in it is a simulated instant.
	Trace []byte
}

// PlanRun is one planned CHAOS run of the memory experiment: the
// per-processor table budget, the organization mem.PlanTable chose
// under it, and what the CHAOS backend measured with that table —
// translation traffic, table storage, peak footprint and simulated
// time (max over processors for the per-processor numbers).
type PlanRun struct {
	BudgetKB   int64
	Plan       mem.TablePlan
	TtableMsgs int64
	TtableMB   float64
	TableKB    float64
	PeakKB     float64
	TimeSec    float64
}

// MemSweepData is the memory experiment's structured result: the
// moldyn and banded-spmv budget grids, the anecdote, and the optional
// table_budget_kb axis points (the anecdote configuration re-planned).
type MemSweepData struct {
	Moldyn   []PlanRun
	Spmv     []PlanRun
	Anecdote PlanRun
	Budget   []PlanRun
}

// Run executes one canonically-encoded experiment and returns its
// structured result. The context is observed at phase boundaries:
// between per-configuration runs and, in each of a configuration's
// backend lanes (apps.RunAll: two, one for a traced run), before each
// backend — a simulated cluster episode itself is never interrupted
// mid-flight, so a canceled run leaves no partially-verified results
// behind.
func Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, canned := experiments[req.Experiment]
	if !canned && req.Experiment != "app" {
		return nil, fmt.Errorf("bench: unknown experiment %q", req.Experiment)
	}
	res := &RunResult{Experiment: req.Experiment}
	// The trace recorder, when asked for: plumbed to every parallel
	// cluster through the Machine funnel (apps.Machine.Trace).
	var tr *obs.Trace
	if req.Trace && (!canned || e.Traceable) {
		tr = obs.NewTrace()
	}
	var err error
	if canned {
		err = e.run(ctx, tr, req, res)
	} else {
		res.Apps, err = runAppGrid(ctx, tr, req)
	}
	if err != nil {
		return nil, err
	}
	if res.Mem != nil {
		res.Metrics = res.Mem.metrics()
	} else {
		res.Metrics = Metrics(res.Apps)
	}
	if tr != nil {
		res.Trace = tr.JSON()
	}
	return res, nil
}

// runItem is one configuration of an experiment's run list.
type runItem struct {
	App   string
	Label string
	Cfg   apps.Config
}

// runItems executes each configuration in order, checking the context
// between them. A non-nil tr labels each item as a trace phase and
// rides into every parallel cluster through the Machine funnel; the
// sequential reference builds its cluster from sim.DefaultConfig and
// is untraced by construction.
func runItems(ctx context.Context, tr *obs.Trace, items []runItem) ([]*AppResults, error) {
	all := make([]*AppResults, 0, len(items))
	for _, it := range items {
		if tr != nil {
			tr.SetPhase(it.App + "/" + it.Label)
			it.Cfg.Machine.Trace = tr
		}
		res, err := RunAppCtx(ctx, it.App, it.Cfg, it.Label)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
	}
	return all, nil
}

// ---- The memory experiment's run side ----------------------------------

// runMemorySweep computes the §9 capacity sweep's structured data: the
// moldyn and banded-spmv budget grids, the anecdote, and the optional
// table_budget_kb axis. Each configuration is generated once.
func runMemorySweep(ctx context.Context, n, procs int, budgetSweepKB []int) (*MemSweepData, error) {
	data := &MemSweepData{}
	var err error
	moldynWork := mem.TablePages(n)
	data.Moldyn, err = planRuns(ctx, memBudgets(n, procs, moldynWork), n, procs, moldynWork,
		moldynChaos(moldyn.Generate(moldyn.DefaultParams(n, procs))))
	if err != nil {
		return nil, err
	}

	sn := 4 * n
	spp := spmv.DefaultParams(sn, procs)
	spp.FarPerRow = 0
	spmvWork := spp.WorkTablePages()
	sw := spmv.Generate(spp)
	data.Spmv, err = planRuns(ctx, memBudgets(sn, procs, spmvWork), sn, procs, spmvWork,
		func(plan mem.TablePlan) *apps.Result {
			c := *sw
			c.P.Table = plan
			return spmv.RunChaos(&c)
		})
	if err != nil {
		return nil, err
	}

	// The anecdote runs under the paper-scale budget; the
	// table_budget_kb axis re-plans its configuration under each
	// budget. Crossing mem.ReplicatedBytes(N) flips the policy from the
	// replicated table to the forced distributed one — the crossover
	// the scenario bands pin.
	ap := anecdoteParams()
	budgets := []int64{mem.PaperTableBudget}
	for _, kb := range budgetSweepKB {
		budgets = append(budgets, int64(kb)<<10)
	}
	rows, err := planRuns(ctx, budgets, ap.N, ap.Procs, mem.TablePages(ap.N), moldynChaos(moldyn.Generate(ap)))
	if err != nil {
		return nil, err
	}
	data.Anecdote, data.Budget = rows[0], rows[1:]
	return data, nil
}

// planRuns plans an n-entry table whose inspector touches workPages
// pages under each budget and runs CHAOS once per distinct plan: a run
// depends on the plan, not on the budget, so budgets that plan alike
// share one run. Each row keeps its own budget.
func planRuns(ctx context.Context, budgets []int64, n, procs, workPages int,
	run func(mem.TablePlan) *apps.Result) ([]PlanRun, error) {
	rows := make([]PlanRun, 0, len(budgets))
	ran := map[mem.TablePlan]PlanRun{}
	for _, budget := range budgets {
		plan := mem.PlanTable(budget, n, procs, workPages)
		row, ok := ran[plan]
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r := run(plan)
			row = PlanRun{
				TtableMsgs: int64(r.Detail["msgs.chaos.ttable"]),
				TtableMB:   r.Detail["mb.chaos.ttable"],
				TableKB:    float64(r.MemCat(chaos.MemCatTable).PeakBytes) / 1e3,
				PeakKB:     r.MaxPeakMB() * 1e3,
				TimeSec:    r.TimeSec,
			}
			ran[plan] = row
		}
		row.BudgetKB, row.Plan = budget>>10, plan
		rows = append(rows, row)
	}
	return rows, nil
}

// moldynChaos runs moldyn's CHAOS backend on w under a plan, on a
// shallow copy with only the plan changed (the backend only reads the
// workload).
func moldynChaos(w *moldyn.Workload) func(mem.TablePlan) *apps.Result {
	return func(plan mem.TablePlan) *apps.Result {
		c := *w
		c.P.Table = plan
		return moldyn.RunChaos(&c)
	}
}

// metrics flattens the memory experiment's asserted numbers: the
// anecdote's plan ordinal (chaos.TableKind: 0 replicated, 1
// distributed, 2 paged) and its four numbers plus, per budget-axis
// point, the plan ordinal and the traffic/footprint the plan produced.
func (d *MemSweepData) metrics() map[string]float64 {
	out := map[string]float64{
		"anecdote/plan":        float64(d.Anecdote.Plan.Kind),
		"anecdote/ttable_msgs": float64(d.Anecdote.TtableMsgs),
		"anecdote/ttable_mb":   d.Anecdote.TtableMB,
		"anecdote/peak_kb":     d.Anecdote.PeakKB,
		"anecdote/time_s":      d.Anecdote.TimeSec,
	}
	for _, bp := range d.Budget {
		prefix := fmt.Sprintf("anecdote/budget_kb=%d/", bp.BudgetKB)
		out[prefix+"plan"] = float64(bp.Plan.Kind)
		out[prefix+"ttable_mb"] = bp.TtableMB
		out[prefix+"ttable_msgs"] = float64(bp.TtableMsgs)
		out[prefix+"peak_kb"] = bp.PeakKB
	}
	return out
}

// memBudgets returns table budgets spanning the organization crossover
// for an n-entry table with the given working set: comfortably above
// the replicated table, just below it, at the paged working set (if it
// is below replication), and at the bare segment.
func memBudgets(n, procs, workPages int) []int64 {
	repl := mem.ReplicatedBytes(n)
	seg := mem.SegmentBytes(n, procs)
	budgets := []int64{repl + (8 << 10), repl - 1}
	if paged := seg + int64(workPages)*mem.TablePageBytes; paged < repl {
		budgets = append(budgets, paged)
	}
	return append(budgets, seg)
}

// ---- The generic app experiment ----------------------------------------

// sweepAxes is the app experiment's built-in sweep axes, each with the
// configuration field it sets; any other axis names one of the app's
// knobs.
var sweepAxes = []struct {
	name string
	set  func(c *apps.Config, v int)
}{
	{"n", func(c *apps.Config, v int) { c.N = v }},
	{"steps", func(c *apps.Config, v int) { c.Steps = v }},
	{"latency_us", func(c *apps.Config, v int) { c.Machine.LatencyUS = v }},
	{"bandwidth_mbs", func(c *apps.Config, v int) { c.Machine.BandwidthMBs = v }},
}

// SweepAxes returns the app experiment's built-in sweep axis names, in
// order; an app's knobs are sweepable too.
func SweepAxes() []string {
	names := make([]string, len(sweepAxes))
	for i, a := range sweepAxes {
		names[i] = a.name
	}
	return names
}

// runAppGrid executes the cross product of the request's sweep values
// (if any) and its procs list, each configuration verified across all
// four backends.
func runAppGrid(ctx context.Context, tr *obs.Trace, req RunRequest) ([]*AppResults, error) {
	sweepVals := []int{0}
	var set func(c *apps.Config, v int)
	if req.Sweep != nil {
		sweepVals = req.Sweep.Values
		set = func(c *apps.Config, v int) { *c = c.WithKnob(req.Sweep.Axis, v) }
		for _, a := range sweepAxes {
			if a.name == req.Sweep.Axis {
				set = a.set
			}
		}
	}
	var items []runItem
	for _, sv := range sweepVals {
		for _, procs := range req.Procs {
			cfg := apps.Config{N: req.N, Procs: procs, Steps: req.Steps,
				Seed: req.Seed, Machine: req.Machine}
			for k, v := range req.Knobs {
				cfg = cfg.WithKnob(k, v)
			}
			label := fmt.Sprintf("%d procs", procs)
			if req.Sweep != nil {
				label = fmt.Sprintf("%s=%d, %s", req.Sweep.Axis, sv, label)
				set(&cfg, sv)
			}
			items = append(items, runItem{App: req.App, Label: label, Cfg: cfg})
		}
	}
	return runItems(ctx, tr, items)
}
