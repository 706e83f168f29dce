// The TreadMarks backends for nbf (§5.2): the coordinate and force
// arrays are shared; a Validate at the start of each time step fetches
// the updated coordinate values through the partner-list section; force
// updates accumulate in private memory and reach the shared array
// through the pipelined nprocs-step reduction.
package nbf

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
)

const (
	barPipeline = iota + 1
	barIntegrate
)

// TmkOptions selects the TreadMarks variant and ablation knobs.
type TmkOptions struct {
	Optimized     bool
	NoAggregation bool
	NoWriteAll    bool
}

// RunTmk executes nbf on the TreadMarks DSM.
func RunTmk(w *Workload, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.Machine.Config(nprocs))
	cl := ep.Cluster
	arenaBytes := apps.PageRound(8*n, p.PageSize)*2 + apps.PageRound(4*n*p.Partners, p.PageSize) + 8*p.PageSize
	d := tmk.New(cl, p.PageSize, arenaBytes)

	// x and forces are allocated back to back *unaligned* so that the
	// block boundaries of a non-power-of-two N fall inside pages — the
	// false-sharing layout the paper's 64x1000 configuration probes. For
	// page-multiple block sizes this is identical to aligned allocation.
	xArr := &core.Array{Name: "x", Base: d.Alloc(8 * n), ElemSize: 8, Len: n}
	fArr := &core.Array{Name: "forces", Base: d.AllocUnaligned(8 * n), ElemSize: 8, Len: n}
	partArr := &core.Array{Name: "partners", Base: d.Alloc(4 * n * p.Partners), ElemSize: 4, Len: n * p.Partners}

	s0 := d.Node(0).Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(xArr.Addr(i), w.X0[i])
		s0.WriteF64(fArr.Addr(i), 0)
	}
	for i, pj := range w.Partners {
		s0.WriteI32(partArr.Addr(i), pj)
	}
	d.SealInit()

	scans := ep.PerProc("scan_s")

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		var rt *core.Runtime
		if opt.Optimized {
			rt = core.NewRuntime(node)
			rt.NoAggregation = opt.NoAggregation
		}
		lf := make([]float64, n)
		cl.Mem.Alloc(me, apps.MemCatPrivate, int64(8*len(lf)))
		mlo, mhi := chaos.BlockRange(n, nprocs, me)

		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Meas.Start(proc) // warmup (inspector/scan analog) excluded
			}
			// Validate at the start of the time step: fetch the updated
			// coordinate values through the partner-list section.
			if opt.Optimized && mlo < mhi {
				before := rt.ScanEntries
				rt.Validate(forceDesc(xArr, partArr, mlo, mhi, p.Partners))
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
			apps.PipelinedReduce(proc, node, rt, fArr, lf, 1, barPipeline, opt.NoWriteAll, cost.ReduceUSPerElem)

			// Integrate own block.
			if mlo < mhi {
				if opt.Optimized {
					rt.Validate(
						core.Desc{Type: core.Direct, Data: fArr,
							Section: rsd.Range1(mlo, mhi-1), Access: core.Read, Sched: 3},
						core.Desc{Type: core.Direct, Data: xArr,
							Section: rsd.Range1(mlo, mhi-1), Access: core.ReadWriteAll, Sched: 4},
					)
				}
				for i := mlo; i < mhi; i++ {
					xv := space.ReadF64(xArr.Addr(i))
					fv := space.ReadF64(fArr.Addr(i))
					space.WriteF64(xArr.Addr(i), integrate(xv, fv, w.Drift[i], w.L))
				}
				proc.Advance(cost.IntegrateUSPerMol * float64(mhi-mlo))
			}
			node.Barrier(barIntegrate)
		}
		ep.Meas.End(proc)
		cl.Mem.Free(me, apps.MemCatPrivate, int64(8*len(lf)))
	})

	ep.Finish()
	ep.TrafficDetail()
	ep.CollectShared(d, xArr, fArr, n)
	d.Close()
	return ep.Res
}

// forceDesc is the descriptor the optimized program validates at the
// start of each time step: x through the partner-list section of
// molecules [mlo, mhi).
func forceDesc(xArr, partArr *core.Array, mlo, mhi, partners int) core.Desc {
	return core.Desc{Type: core.Indirect, Data: xArr, Indir: partArr,
		Section: rsd.Range1(mlo*partners, mhi*partners-1), Access: core.Read, Sched: 1}
}
