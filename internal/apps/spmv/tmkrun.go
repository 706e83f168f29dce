// The TreadMarks backends for spmv: x, y, and the matrix (cols, vals)
// live in the DSM. The base system demand-pages the x values each sweep;
// the optimized system issues a Validate with an INDIRECT descriptor
// over the column-index section of the owned rows, prefetching exactly
// the x pages those columns name in one aggregated exchange per remote
// processor, plus WRITE_ALL/READ&WRITE_ALL direct descriptors for the
// owner-computed y and x blocks. All are bound from the compiled
// SpmvKernel.
package spmv

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
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

// Image is spmv's initial TreadMarks image: x, y and the matrix (cols,
// vals) laid out in one sealed arena, built once per workload and shared
// by both TreadMarks variants.
type Image struct {
	*tmk.Image
	xArr, yArr, colArr *core.Array
}

// BuildImage lays out spmv's shared arrays and writes their initial
// values: x0, a zero y, and the matrix.
func BuildImage(w *Workload) *Image {
	p := w.P
	n := p.N
	nnz := n * p.NNZRow
	arenaBytes := apps.PageRound(8*n, p.PageSize)*2 +
		apps.PageRound(4*nnz, p.PageSize) + apps.PageRound(8*nnz, p.PageSize) + 8*p.PageSize
	img := tmk.NewImage(p.PageSize, arenaBytes)
	im := &Image{Image: img,
		xArr:   &core.Array{Name: "x", Base: img.Alloc(8 * n), ElemSize: 8, Len: n},
		yArr:   &core.Array{Name: "y", Base: img.Alloc(8 * n), ElemSize: 8, Len: n},
		colArr: &core.Array{Name: "cols", Base: img.Alloc(4 * nnz), ElemSize: 4, Len: nnz},
	}
	valArr := &core.Array{Name: "vals", Base: img.Alloc(8 * nnz), ElemSize: 8, Len: nnz}
	s0 := img.Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(im.xArr.Addr(i), w.X0[i])
		s0.WriteF64(im.yArr.Addr(i), 0)
	}
	for i := 0; i < nnz; i++ {
		s0.WriteI32(im.colArr.Addr(i), w.Cols[i])
		s0.WriteF64(valArr.Addr(i), w.Vals[i])
	}
	img.Seal()
	return im
}

// RunTmk executes spmv on the TreadMarks DSM, starting from im.
func RunTmk(w *Workload, im *Image, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.Machine.Config(nprocs))
	d := tmk.NewFromImage(ep.Cluster, im.Image)
	xArr, yArr, colArr := im.xArr, im.yArr, im.colArr

	scans := ep.PerProc("scan_s")

	ep.Cluster.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		rlo, rhi := chaos.BlockRange(n, nprocs, me)
		var rt *core.Runtime
		var matvecDescs, refreshDescs []core.Desc
		if opt.Optimized {
			rt = core.NewRuntime(node)
			be := &compiler.BindEnv{
				Arrays: map[string]*core.Array{"x": xArr, "y": yArr, "cols": colArr},
				Dims:   map[string][]int{"cols": {p.NNZRow, n}},
				Env:    compiler.Env{"mylo": rlo + 1, "myhi": rhi, "nnzrow": p.NNZRow},
			}
			matvecDescs = compiler.MustBind(compiler.SpmvKernel, "matvec", be)
			refreshDescs = compiler.MustBind(compiler.SpmvKernel, "refresh", be)
		}

		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Start(proc)
			}
			if opt.Optimized && rlo < rhi {
				before := rt.ScanEntries
				rt.Validate(matvecDescs...)
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
				rt.Validate(refreshDescs...)
			}
			for i := rlo; i < rhi; i++ {
				space.WriteF64(xArr.Addr(i),
					refresh(space.ReadF64(xArr.Addr(i)), space.ReadF64(yArr.Addr(i))))
			}
			proc.Advance(cost.RefreshUSPerRow * float64(rhi-rlo))
			node.Barrier(barRefresh)
		}
		ep.End(proc)
	})

	ep.Finish()
	ep.TrafficDetail()
	ep.CollectShared(d, xArr, yArr, n)
	d.Close()
	return ep.Res
}
