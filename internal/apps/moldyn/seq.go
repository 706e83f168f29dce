// The sequential reference program: plain arrays, no run-time library,
// exactly the code the paper's "seq" rows time.
package moldyn

import (
	"repro/internal/apps"
	"repro/internal/sim"
)

// RunSequential executes the workload on one simulated processor with no
// DSM or message-passing library and returns the reference result; the
// other backends' final state must match it bit-for-bit.
func RunSequential(w *Workload) *apps.Result {
	p := w.P
	ep := apps.NewEpisode("seq", sim.DefaultConfig(1))
	proc := ep.Cluster.Proc(0)
	cost := p.Costs
	n := p.N

	x := append([]float64(nil), w.X0...)
	forces := make([]float64, 3*n)
	pairs := w.Sorted // the initial build is untimed (init); a rebuild replaces it

	res := ep.Res
	var interactions int64

	for step := 1; step <= p.Steps; step++ {
		if p.UpdateEvery > 0 && step > 1 && (step-1)%p.UpdateEvery == 0 {
			var checks int64
			pairs, checks = BuildPairs(&p, w.L, x, 1, 0)
			proc.Advance(cost.RebuildUSPerCheck * float64(checks))
			res.AddDetail("rebuilds", 1)
		}
		// ComputeForces.
		for i := range forces {
			forces[i] = 0
		}
		proc.Advance(cost.ZeroUSPerElem * float64(3*n))
		for _, pr := range pairs {
			n1, n2 := int(pr[0]), int(pr[1])
			for d := 0; d < 3; d++ {
				f := apps.MinImage(x[3*n1+d]-x[3*n2+d], w.L)
				forces[3*n1+d] += f
				forces[3*n2+d] -= f
			}
		}
		interactions += int64(len(pairs))
		proc.Advance(cost.InteractionUS * float64(len(pairs)))
		// Integrate.
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				x[3*i+d] = apps.Integrate(x[3*i+d], forces[3*i+d], w.Drift[3*i+d], w.L)
			}
		}
		proc.Advance(cost.IntegrateUSPerMol * float64(n))
	}

	res.AddDetail("interactions", float64(interactions))
	return ep.FinishSeq(0, x, forces)
}
