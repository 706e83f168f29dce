// The CHAOS backend for nbf (§5.2): the inspector runs once at program
// start (outside the timed steps); each time step gathers the updated
// coordinates, computes into local (owned + ghost) force slots, and
// scatter-adds the contributions back.
package nbf

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// RunChaos executes nbf with the inspector-executor library.
func RunChaos(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs
	ecost := chaos.DefaultExecutorCost()

	ep := apps.NewEpisode("chaos", p.Machine.Config(nprocs))
	ep.Res.TableOrg = p.TableKind.String()
	cl := ep.Cluster
	part := chaos.Block(n, nprocs)
	tt := chaos.NewTransTable(part, p.TableKind)
	tt.CachePages = p.TableCachePages
	counts := part.Counts()

	inspectorSec := ep.PerProc("inspector_s")
	xs, fs := make([][]float64, nprocs), make([][]float64, nprocs)

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		own := counts[me]
		mlo, mhi := chaos.BlockRange(n, nprocs, me)

		// Inspector: called once, at the beginning of the program.
		t0 := proc.Clock()
		sch := chaos.Inspect(proc, 0, apps.RowRefs(mlo, mhi, p.Partners, w.Partners), tt, p.Inspector)
		inspectorSec[me] = (proc.Clock() - t0) / 1e6

		slots := own + sch.Ghosts
		cl.Mem.Alloc(me, apps.MemCatData, int64(2*8*slots)) // xLoc + fLoc
		xLoc := make([]float64, slots)
		fLoc := make([]float64, slots)
		for i := mlo; i < mhi; i++ {
			xLoc[sch.LocalOf(i)] = w.X0[i]
		}

		tag := 0
		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Meas.Start(proc)
			}
			tag++
			chaos.Gather(proc, tag, sch, xLoc, 1, ecost)
			for i := range fLoc {
				fLoc[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(slots))
			for i := mlo; i < mhi; i++ {
				li := int(sch.LocalOf(i))
				xi := xLoc[li]
				for k := 0; k < p.Partners; k++ {
					j := int(w.Partners[i*p.Partners+k])
					lj := int(sch.LocalOf(j))
					f := force(xi, xLoc[lj], w.L)
					fLoc[li] += f
					fLoc[lj] -= f
				}
			}
			proc.Advance(cost.InteractionUS * float64((mhi-mlo)*p.Partners))
			tag++
			chaos.ScatterAdd(proc, tag, sch, fLoc, 1, ecost)
			for i := mlo; i < mhi; i++ {
				li := int(sch.LocalOf(i))
				xLoc[li] = integrate(xLoc[li], fLoc[li], w.Drift[i], w.L)
			}
			proc.Advance(cost.IntegrateUSPerMol * float64(mhi-mlo))
		}
		ep.Meas.End(proc)
		xs[me], fs[me] = xLoc[:own], fLoc[:own]
		cl.Mem.Free(me, apps.MemCatData, int64(2*8*slots))
		sch.ReleaseMem(proc)
	})
	tt.ReleaseMem(cl)

	ep.Finish()
	ep.TrafficDetail()
	apps.Assemble(ep.Res, part.Owned(), 1, xs, fs)
	return ep.Res
}
