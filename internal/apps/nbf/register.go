// Registry adapter: nbf as apps.Variants. The factory maps the
// harness Config onto Params (knob "partners" sets the partner-list
// length Table 2 uses).
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
			plan := mem.PlanTable(int64(kb)<<10, cfg.N, cfg.Procs, mem.TablePages(span))
			p.TableKind = plan.Kind
			p.TableCachePages = plan.CachePages
		}
		return apps.NewVariants("nbf", Generate(p), RunSequential, RunChaos, RunTmk,
			TmkOptions{}, TmkOptions{Optimized: true})
	}, "partners", "page_size", "table_budget_kb")
}
