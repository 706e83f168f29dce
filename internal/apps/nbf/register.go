// Registry adapter: nbf as an apps.Workload. The factory maps the
// harness Config onto Params (knob "partners" sets the partner-list
// length Table 2 uses). "no_aggregation" = 1 and "no_write_all" = 1
// run the tmk-opt slot without message aggregation (ablation A3) or
// without WRITE_ALL reduction shipping (ablation A4).
package nbf

import (
	"repro/internal/apps"
	"repro/internal/mem"
)

func init() {
	apps.Register("nbf", func(cfg apps.Config) apps.Workload {
		p := DefaultParams(cfg.N, cfg.Procs)
		cfg.ApplyCommon(&p.Steps, &p.Seed)
		p.Machine = cfg.Machine
		p.Partners = cfg.Knob("partners", p.Partners)
		p.PageSize = cfg.Knob("page_size", p.PageSize)
		if kb := cfg.Knob("table_budget_kb", 0); kb > 0 {
			// A processor's partner references span its own block plus
			// Spread of the index space beyond it (partner offsets are
			// one-sided: j = (i + off) mod N with off in [1, Spread*N]).
			span := (cfg.N+cfg.Procs-1)/cfg.Procs + int(p.Spread*float64(cfg.N))
			if span > cfg.N {
				span = cfg.N
			}
			p.Table = mem.PlanTable(int64(kb)<<10, cfg.N, cfg.Procs, mem.TablePages(span))
		}
		opt := TmkOptions{Optimized: true,
			NoAggregation: cfg.Knob("no_aggregation", 0) != 0,
			NoWriteAll:    cfg.Knob("no_write_all", 0) != 0}
		return apps.NewVariants("nbf", Generate(p), RunSequential, RunChaos, BuildImage, RunTmk,
			TmkOptions{}, opt)
	}, "partners", "page_size", "table_budget_kb", "no_aggregation", "no_write_all")
}
