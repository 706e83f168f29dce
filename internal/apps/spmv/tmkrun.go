// The TreadMarks backends for spmv: x, y, and the matrix (cols, vals)
// live in the DSM. The base system demand-pages the x values each sweep;
// the optimized system issues a Validate with an INDIRECT descriptor
// over the column-index section of the owned rows, prefetching exactly
// the x pages those columns name in one aggregated exchange per remote
// processor, plus WRITE_ALL/READ&WRITE_ALL direct descriptors for the
// owner-computed y and x blocks.
package spmv

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
)

const (
	barCompute = iota + 1
	barRefresh
)

// TmkOptions selects the TreadMarks variant.
type TmkOptions struct {
	Optimized bool
}

// RunTmk executes spmv on the TreadMarks DSM.
func RunTmk(w *Workload, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	nnz := n * p.NNZRow
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.Machine.Config(nprocs))
	arenaBytes := apps.PageRound(8*n, p.PageSize)*2 +
		apps.PageRound(4*nnz, p.PageSize) + apps.PageRound(8*nnz, p.PageSize) + 8*p.PageSize
	d := tmk.New(ep.Cluster, p.PageSize, arenaBytes)

	xArr := &core.Array{Name: "x", Base: d.Alloc(8 * n), ElemSize: 8, Len: n}
	yArr := &core.Array{Name: "y", Base: d.Alloc(8 * n), ElemSize: 8, Len: n}
	colArr := &core.Array{Name: "cols", Base: d.Alloc(4 * nnz), ElemSize: 4, Len: nnz}
	valArr := &core.Array{Name: "vals", Base: d.Alloc(8 * nnz), ElemSize: 8, Len: nnz}

	s0 := d.Node(0).Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(xArr.Addr(i), w.X0[i])
		s0.WriteF64(yArr.Addr(i), 0)
	}
	for i := 0; i < nnz; i++ {
		s0.WriteI32(colArr.Addr(i), w.Cols[i])
		s0.WriteF64(valArr.Addr(i), w.Vals[i])
	}
	d.SealInit()

	scans := ep.PerProc("scan_s")

	ep.Cluster.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		var rt *core.Runtime
		if opt.Optimized {
			rt = core.NewRuntime(node)
		}
		rlo, rhi := chaos.BlockRange(n, nprocs, me)

		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Meas.Start(proc)
			}
			if opt.Optimized && rlo < rhi {
				before := rt.ScanEntries
				rt.Validate(
					core.Desc{Type: core.Indirect, Data: xArr, Indir: colArr,
						Section: rsd.Range1(rlo*p.NNZRow, rhi*p.NNZRow-1),
						Access:  core.Read, Sched: 1},
					core.Desc{Type: core.Direct, Data: yArr,
						Section: rsd.Range1(rlo, rhi-1),
						Access:  core.WriteAll, Sched: 2},
				)
				scans[me] += rt.ScanUSPerEntry * float64(rt.ScanEntries-before) / 1e6
			}
			for i := rlo; i < rhi; i++ {
				space.WriteF64(yArr.Addr(i), rowProduct(w, i, func(c int) float64 {
					return space.ReadF64(xArr.Addr(c))
				}))
			}
			proc.Advance(cost.MulAddUS * float64((rhi-rlo)*p.NNZRow))
			node.Barrier(barCompute)

			if opt.Optimized && rlo < rhi {
				rt.Validate(
					core.Desc{Type: core.Direct, Data: yArr,
						Section: rsd.Range1(rlo, rhi-1), Access: core.Read, Sched: 3},
					core.Desc{Type: core.Direct, Data: xArr,
						Section: rsd.Range1(rlo, rhi-1), Access: core.ReadWriteAll, Sched: 4},
				)
			}
			for i := rlo; i < rhi; i++ {
				space.WriteF64(xArr.Addr(i),
					refresh(space.ReadF64(xArr.Addr(i)), space.ReadF64(yArr.Addr(i))))
			}
			proc.Advance(cost.RefreshUSPerRow * float64(rhi-rlo))
			node.Barrier(barRefresh)
		}
		ep.Meas.End(proc)
	})

	ep.Finish()
	ep.TrafficDetail()
	ep.CollectShared(d, xArr, yArr, n)
	d.Close()
	return ep.Res
}
