// The TreadMarks backends for nbf (§5.2): the coordinate and force
// arrays are shared; a Validate at the start of each time step fetches
// the updated coordinate values through the partner-list section; force
// updates accumulate in private memory and reach the shared array
// through the pipelined nprocs-step reduction. The optimized variant's
// descriptors are all bound from the compiled NBFKernel and
// ReductionKernel.
package nbf

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tmk"
)

const (
	barPipeline = iota + 1
	barIntegrate
)

// TmkOptions selects the TreadMarks variant and ablation knobs.
type TmkOptions struct {
	Optimized     bool // compiler-inserted Validate calls
	NoAggregation bool // ablation A3: Validate without message aggregation
	NoWriteAll    bool // ablation A4: reductions use READ&WRITE (twinned diffs)
}

// Image is nbf's initial TreadMarks image: x, forces and the partner
// lists laid out in one sealed arena, built once per workload and shared
// by both TreadMarks variants.
type Image struct {
	*tmk.Image
	xArr, fArr, partArr *core.Array
}

// BuildImage lays out nbf's shared arrays and writes their initial
// values: x0, zero forces, and the partner lists.
func BuildImage(w *Workload) *Image {
	p := w.P
	n := p.N
	arenaBytes := apps.PageRound(8*n, p.PageSize)*2 + apps.PageRound(4*n*p.Partners, p.PageSize) + 8*p.PageSize
	img := tmk.NewImage(p.PageSize, arenaBytes)
	// x and forces are allocated back to back *unaligned* so that the
	// block boundaries of a non-power-of-two N fall inside pages — the
	// false-sharing layout the paper's 64x1000 configuration probes. For
	// page-multiple block sizes this is identical to aligned allocation.
	im := &Image{Image: img,
		xArr:    &core.Array{Name: "x", Base: img.Alloc(8 * n), ElemSize: 8, Len: n},
		fArr:    &core.Array{Name: "forces", Base: img.AllocUnaligned(8 * n), ElemSize: 8, Len: n},
		partArr: &core.Array{Name: "partners", Base: img.Alloc(4 * n * p.Partners), ElemSize: 4, Len: n * p.Partners},
	}
	s0 := img.Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(im.xArr.Addr(i), w.X0[i])
		s0.WriteF64(im.fArr.Addr(i), 0)
	}
	for i, pj := range w.Partners {
		s0.WriteI32(im.partArr.Addr(i), pj)
	}
	img.Seal()
	return im
}

// RunTmk executes nbf on the TreadMarks DSM, starting from im.
func RunTmk(w *Workload, im *Image, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.Machine.Config(nprocs))
	cl := ep.Cluster
	d := tmk.NewFromImage(cl, im.Image)
	xArr, fArr, partArr := im.xArr, im.fArr, im.partArr

	scans := ep.PerProc("scan_s")

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		mlo, mhi := chaos.BlockRange(n, nprocs, me)
		var rt *core.Runtime
		var forceDescs, integrateDescs, stages []core.Desc
		if opt.Optimized {
			rt = core.NewRuntime(node)
			rt.NoAggregation = opt.NoAggregation
			be := &compiler.BindEnv{
				Arrays: map[string]*core.Array{"x": xArr, "forces": fArr, "partners": partArr},
				Dims:   map[string][]int{"partners": {p.Partners, n}},
				Env:    compiler.Env{"mylo": mlo + 1, "myhi": mhi, "ppm": p.Partners},
			}
			forceDescs = compiler.MustBind(compiler.NBFKernel, "forceloop", be)
			integrateDescs = compiler.MustBind(compiler.NBFKernel, "integrate", be)
			stages = apps.ReduceStages(fArr, 1, me, nprocs, opt.NoWriteAll)
		}
		lf := make([]float64, n)
		cl.Mem.Alloc(me, apps.MemCatPrivate, int64(8*len(lf)))

		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Start(proc) // warmup (inspector/scan analog) excluded
			}
			// Validate at the start of the time step: fetch the updated
			// coordinate values through the partner-list section, and
			// the processor's own block.
			if opt.Optimized && mlo < mhi {
				before := rt.ScanEntries
				rt.Validate(forceDescs...)
				scans[me] += rt.ScanUSPerEntry * float64(rt.ScanEntries-before) / 1e6
			}
			for i := range lf {
				lf[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(n))
			for i := mlo; i < mhi; i++ {
				xi := space.ReadF64(xArr.Addr(i))
				for k := 0; k < p.Partners; k++ {
					j := int(space.ReadI32(partArr.Addr(i*p.Partners + k)))
					f := force(xi, space.ReadF64(xArr.Addr(j)), w.L)
					lf[i] += f
					lf[j] -= f
				}
			}
			proc.Advance(cost.InteractionUS * float64((mhi-mlo)*p.Partners))

			// Pipelined reduction into the shared forces.
			apps.PipelinedReduce(proc, node, rt, stages, fArr, lf, 1, barPipeline, cost.ReduceUSPerElem)

			// Integrate own block.
			if mlo < mhi {
				if opt.Optimized {
					rt.Validate(integrateDescs...)
				}
				for i := mlo; i < mhi; i++ {
					xv := space.ReadF64(xArr.Addr(i))
					fv := space.ReadF64(fArr.Addr(i))
					space.WriteF64(xArr.Addr(i), apps.Integrate(xv, fv, w.Drift[i], w.L))
				}
				proc.Advance(cost.IntegrateUSPerMol * float64(mhi-mlo))
			}
			node.Barrier(barIntegrate)
		}
		ep.End(proc)
		cl.Mem.Free(me, apps.MemCatPrivate, int64(8*len(lf)))
	})

	ep.Finish()
	ep.TrafficDetail()
	ep.CollectShared(d, xArr, fArr, n)
	d.Close()
	return ep.Res
}
