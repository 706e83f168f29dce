// Registry adapter: taskq as an apps.Workload. The registry's Chaos
// slot runs the message-passing master/worker program and the TmkOpt
// slot the batched-claim variant. Knob: "batch" (items per lock
// acquire in the batched variant); the per-item cost range and the
// page size keep their Params defaults.
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
		return apps.NewVariants("taskq", Generate(p), RunSequential, RunMP, BuildImage, RunTmk,
			TmkOptions{}, TmkOptions{Batched: true})
	}, "batch")
}
