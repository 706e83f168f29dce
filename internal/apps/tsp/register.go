// Registry adapter: TSP as apps.Variants. The registry's Chaos slot
// runs the message-passing master/worker program (the PVM-style
// contrast — TSP has no inspector-executor form), and the TmkOpt slot
// runs the batched-claim variant. Knobs: "depth" (seed-task prefix
// depth), "batch" (tasks per queue-lock acquire in the batched
// variant), "page_size".
package tsp

import "repro/internal/apps"

// params maps the harness Config onto Params.
func params(cfg apps.Config) Params {
	if cfg.Steps != 0 {
		// Branch and bound has no step count; a sweep over Steps must
		// fail loudly, not produce identical runs.
		panic("tsp: Steps is not a parameter of this workload")
	}
	p := DefaultParams(cfg.N, cfg.Procs)
	if cfg.Seed != 0 {
		p.Seed = cfg.Seed
	}
	p.Machine = cfg.Machine
	p.SeedDepth = cfg.Knob("depth", p.SeedDepth)
	p.Batch = cfg.Knob("batch", p.Batch)
	p.PageSize = cfg.Knob("page_size", p.PageSize)
	return p
}

func init() {
	apps.Register("tsp", func(cfg apps.Config) apps.Workload {
		return apps.NewVariants("tsp", Generate(params(cfg)), RunSequential, RunMP, RunTmk,
			TmkOptions{}, TmkOptions{Batched: true})
	}, "depth", "batch", "page_size")
}
