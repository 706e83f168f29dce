// Registry adapter: moldyn as an apps.Workload. The factory maps the
// harness Config onto Params (knob "update_every" selects the
// interaction-list rebuild interval Table 1 sweeps; "table_budget_kb"
// hands the translation-table choice to the memory capacity policy;
// "no_aggregation" = 1 runs the tmk-opt slot without message
// aggregation, ablation A3).
package moldyn

import (
	"repro/internal/apps"
	"repro/internal/mem"
)

func init() {
	apps.Register("moldyn", func(cfg apps.Config) apps.Workload {
		p := DefaultParams(cfg.N, cfg.Procs)
		cfg.ApplyCommon(&p.Steps, &p.Seed)
		p.Machine = cfg.Machine
		p.UpdateEvery = cfg.Knob("update_every", p.UpdateEvery)
		if kb := cfg.Knob("table_budget_kb", 0); kb > 0 {
			// Budget-driven table selection: moldyn's reference stream
			// spans the whole table (the cutoff sphere covers a large
			// fraction of the box), so the working set is every page.
			p.Table = mem.PlanTable(int64(kb)<<10, cfg.N, cfg.Procs, mem.TablePages(cfg.N))
		}
		opt := TmkOptions{Optimized: true, NoAggregation: cfg.Knob("no_aggregation", 0) != 0}
		return apps.NewVariants("moldyn", Generate(p), RunSequential, RunChaos, BuildImage, RunTmk,
			TmkOptions{}, opt)
	}, "update_every", "table_budget_kb", "no_aggregation")
}
