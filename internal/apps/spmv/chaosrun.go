// The CHAOS backend for spmv: the inspector runs once at program start
// (the column structure is static), translating the column indices of
// the owned rows into a gather schedule; each sweep gathers the updated
// x ghosts, computes the owned rows, and relaxes the owned x entries.
// There is no scatter phase — rows are owner-computed.
package spmv

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// RunChaos executes spmv with the inspector-executor library.
func RunChaos(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs
	ecost := chaos.DefaultExecutorCost()

	ep := apps.NewEpisode("chaos", p.Machine.Config(nprocs))
	ep.Res.TableOrg = p.Table.Kind.String()
	cl := ep.Cluster
	part := chaos.Block(n, nprocs)
	tt := chaos.NewTransTable(part, p.Table.Kind)
	tt.CachePages = p.Table.CachePages
	counts := part.Counts()

	inspectorSec := ep.PerProc("inspector_s")
	xs, ys := make([][]float64, nprocs), make([][]float64, nprocs)

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		own := counts[me]
		rlo, rhi := chaos.BlockRange(n, nprocs, me)

		// Inspector: called once, at the beginning of the program. The
		// reference stream is every column index of the owned rows plus
		// the owned entries themselves (the refresh).
		t0 := proc.Clock()
		sch := chaos.InspectStream(proc, 0, apps.RowRefs(rlo, rhi, p.NNZRow, w.Cols), tt, p.Inspector)
		inspectorSec[me] = (proc.Clock() - t0) / 1e6

		cl.Mem.Alloc(me, apps.MemCatData, int64(8*(2*own+sch.Ghosts))) // xLoc + yLoc
		xLoc := make([]float64, own+sch.Ghosts)
		yLoc := make([]float64, own)
		for i := rlo; i < rhi; i++ {
			xLoc[sch.LocalOf(i)] = w.X0[i]
		}

		tag := 0
		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Start(proc)
			}
			tag++
			chaos.Gather(proc, tag, sch, xLoc, 1, ecost)
			for i := rlo; i < rhi; i++ {
				li := int(sch.LocalOf(i))
				yLoc[li] = rowProduct(w, i, func(c int) float64 {
					return xLoc[sch.LocalOf(c)]
				})
			}
			proc.Advance(cost.MulAddUS * float64((rhi-rlo)*p.NNZRow))
			for i := rlo; i < rhi; i++ {
				li := int(sch.LocalOf(i))
				xLoc[li] = refresh(xLoc[li], yLoc[li])
			}
			proc.Advance(cost.RefreshUSPerRow * float64(rhi-rlo))
		}
		ep.End(proc)
		xs[me], ys[me] = xLoc[:own], yLoc
		cl.Mem.Free(me, apps.MemCatData, int64(8*(2*own+sch.Ghosts)))
		sch.ReleaseMem(proc)
	})
	tt.ReleaseMem(cl)

	ep.Finish()
	ep.TrafficDetail()
	apps.Assemble(ep.Res, part.Owned(), 1, xs, ys)
	return ep.Res
}
