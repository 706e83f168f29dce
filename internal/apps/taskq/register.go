// Registry adapter: taskq as apps.Variants. The registry's Chaos
// slot runs the message-passing master/worker program and the TmkOpt
// slot the batched-claim variant. Knobs: "batch" (items per lock
// acquire in the batched variant), "work_lo"/"work_hi" (per-item cost
// range, us), "page_size".
package taskq

import "repro/internal/apps"

func init() {
	apps.Register("taskq", func(cfg apps.Config) apps.Workload {
		if cfg.Steps != 0 {
			// The queue drains once; a sweep over Steps must fail
			// loudly, not produce identical runs.
			panic("taskq: Steps is not a parameter of this workload")
		}
		p := DefaultParams(cfg.N, cfg.Procs)
		if cfg.Seed != 0 {
			p.Seed = cfg.Seed
		}
		p.Machine = cfg.Machine
		p.Batch = cfg.Knob("batch", p.Batch)
		p.WorkLoUS = cfg.Knob("work_lo", p.WorkLoUS)
		p.WorkHiUS = cfg.Knob("work_hi", p.WorkHiUS)
		p.PageSize = cfg.Knob("page_size", p.PageSize)
		return apps.NewVariants("taskq", Generate(p), RunSequential, RunMP, RunTmk,
			TmkOptions{}, TmkOptions{Batched: true})
	}, "batch", "work_lo", "work_hi", "page_size")
}
