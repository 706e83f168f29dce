// Registry adapter: spmv as an apps.Workload (knob "nnz_row" sets the
// nonzeros per row).
package spmv

import (
	"repro/internal/apps"
	"repro/internal/mem"
)

func init() {
	apps.Register("spmv", func(cfg apps.Config) apps.Workload {
		p := DefaultParams(cfg.N, cfg.Procs)
		cfg.ApplyCommon(&p.Steps, &p.Seed)
		p.Machine = cfg.Machine
		p.NNZRow = cfg.Knob("nnz_row", p.NNZRow)
		p.PageSize = cfg.Knob("page_size", p.PageSize)
		p.FarPerRow = cfg.Knob("far_per_row", p.FarPerRow)
		if kb := cfg.Knob("table_budget_kb", 0); kb > 0 {
			p.Table = mem.PlanTable(int64(kb)<<10, cfg.N, cfg.Procs, p.WorkTablePages())
		}
		return apps.NewVariants("spmv", Generate(p), RunSequential, RunChaos, BuildImage, RunTmk,
			TmkOptions{}, TmkOptions{Optimized: true})
	}, "nnz_row", "page_size", "far_per_row", "table_budget_kb")
}
