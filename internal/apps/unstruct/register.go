// Registry adapter: the unstructured-mesh sweep as apps.Variants.
package unstruct

import "repro/internal/apps"

func init() {
	apps.Register("unstruct", func(cfg apps.Config) apps.Workload {
		p := DefaultParams(cfg.N, cfg.Procs)
		cfg.ApplyCommon(&p.Steps, &p.Seed)
		p.Machine = cfg.Machine
		return apps.NewVariants("unstruct", Generate(p), RunSequential, RunChaos, RunTmk,
			TmkOptions{}, TmkOptions{Optimized: true})
	})
}
