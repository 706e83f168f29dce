// The TreadMarks backends (§5.1): coordinates and forces live in shared
// memory; each processor accumulates force contributions in a private
// local_forces array and the processors then update the shared forces in
// a pipelined fashion in nprocs steps (Figure 2). The base variant runs
// on demand paging alone; the optimized variant carries the
// compiler-inserted Validate calls — an INDIRECT descriptor on x through
// the interaction-list section at the top of ComputeForces, and DIRECT
// descriptors for the pipelined reduction, the integration loop and the
// list rebuild's read of every coordinate. All are bound from the
// compiled MoldynKernel and ReductionKernel.
package moldyn

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// Barrier ids (phases repeat across steps; ids are reused).
const (
	barStart = iota + 1
	barAfterRebuild
	barPipeline
	barIntegrate
	barBeforeRebuild
	barRebuildCounts
)

// TmkOptions selects the TreadMarks variant and its ablation knobs.
type TmkOptions struct {
	Optimized     bool // compiler-inserted Validate calls
	NoAggregation bool // ablation A3: Validate without message aggregation
}

// Image is moldyn's initial TreadMarks image: the coordinates, the
// forces, the RCB-partitioned interaction list (with room to grow) and
// its section boundaries laid out in one sealed arena, built once per
// workload and shared by both TreadMarks variants.
type Image struct {
	*tmk.Image
	xArr, fArr, interArr *core.Array
	startsAddr           vm.Addr
	capPairs             int // the interaction list's capacity in pairs
}

// BuildImage lays out moldyn's shared arrays and writes their initial
// values (untimed, like the paper): processor 0's coordinates, zero
// forces, the RCB-partitioned interaction list, and the section
// boundaries.
func BuildImage(w *Workload) *Image {
	p := w.P
	n := p.N
	// Capacity for the shared interaction list: the pair count drifts as
	// molecules move; 1.5x the initial count plus slack covers it.
	capPairs := len(w.Sorted)*3/2 + 4096
	arenaBytes := apps.PageRound(24*n, p.PageSize) + apps.PageRound(8*3*n, p.PageSize) +
		apps.PageRound(8*capPairs, p.PageSize) + apps.PageRound(8*(p.Procs+2), p.PageSize) +
		8*p.PageSize
	img := tmk.NewImage(p.PageSize, arenaBytes)
	im := &Image{Image: img, capPairs: capPairs,
		xArr:     &core.Array{Name: "x", Base: img.Alloc(24 * n), ElemSize: 24, Len: n},
		fArr:     &core.Array{Name: "forces", Base: img.Alloc(8 * 3 * n), ElemSize: 8, Len: 3 * n},
		interArr: &core.Array{Name: "interaction_list", Base: img.Alloc(8 * capPairs), ElemSize: 4, Len: 2 * capPairs},
	}
	im.startsAddr = img.Alloc(8 * (p.Procs + 1))
	s0 := img.Space()
	for i := 0; i < 3*n; i++ {
		s0.WriteF64(im.xArr.Base+vm.Addr(8*i), w.X0[i])
		s0.WriteF64(im.fArr.Base+vm.Addr(8*i), 0)
	}
	writePairs(s0, im.interArr, im.startsAddr, w.Sorted, w.Starts)
	img.Seal()
	return im
}

// RunTmk executes the workload on the TreadMarks DSM, starting from im.
func RunTmk(w *Workload, im *Image, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.simConfig())
	cl := ep.Cluster
	d := tmk.NewFromImage(cl, im.Image)
	xArr, fArr, interArr, startsAddr, capPairs := im.xArr, im.fArr, im.interArr, im.startsAddr, im.capPairs

	scans := ep.PerProc("scan_s") // indirection-scan seconds

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		mlo, mhi := chaos.BlockRange(n, nprocs, me)
		var rt *core.Runtime
		var be *compiler.BindEnv
		var forceDescs, integrateDescs, rebuildDescs, stages []core.Desc
		flo, fhi := -1, -1 // the section forceDescs is bound for
		if opt.Optimized {
			rt = core.NewRuntime(node)
			rt.NoAggregation = opt.NoAggregation
			// The force loop binds x as one 24-byte unit per molecule,
			// the unit the interaction list's molecule numbers index; the
			// integration and the rebuild bind the same bytes as the
			// 8-byte coordinates x(3, n) of their dense sections
			// (DESIGN.md §3).
			be = &compiler.BindEnv{
				Arrays: map[string]*core.Array{"x": xArr, "interaction_list": interArr},
				Dims:   map[string][]int{"interaction_list": {2, capPairs}},
				Env:    compiler.Env{},
			}
			coords := &compiler.BindEnv{
				Arrays: map[string]*core.Array{"x": {Name: "x", Base: xArr.Base, ElemSize: 8, Len: 3 * n}, "forces": fArr},
				Dims:   map[string][]int{"x": {3, n}, "forces": {3, n}},
				Env:    compiler.Env{"mylo": mlo + 1, "myhi": mhi, "n": n},
			}
			integrateDescs = compiler.MustBind(compiler.MoldynKernel, "integrate", coords)
			rebuildDescs = compiler.MustBind(compiler.MoldynKernel, "buildlist", coords)
			stages = apps.ReduceStages(fArr, 3, me, nprocs, false)
		}
		ep.Start(proc)

		lf := make([]float64, 3*n) // private local_forces (full size; §5.1)
		cl.Mem.Alloc(me, apps.MemCatPrivate, int64(8*len(lf)))

		for step := 1; step <= p.Steps; step++ {
			// Rebuild the interaction list in parallel: each processor
			// scans an interleaved subset of the rows and the sections
			// are merged deterministically in shared memory.
			if p.UpdateEvery > 0 && step > 1 && (step-1)%p.UpdateEvery == 0 {
				node.Barrier(barBeforeRebuild)
				rebuildParallel(proc, node, rt, rebuildDescs, w, &p, xArr, interArr, startsAddr)
				node.Barrier(barAfterRebuild)
			}

			// ComputeForces: read section bounds, then the pair loop.
			lo := int(space.ReadI64(startsAddr + vm.Addr(8*me)))
			hi := int(space.ReadI64(startsAddr + vm.Addr(8*(me+1))))
			if opt.Optimized {
				if lo != flo || hi != fhi { // the section moved: a rebuild
					be.Env["mylo"], be.Env["myhi"] = lo+1, hi
					forceDescs, flo, fhi = compiler.MustBind(compiler.MoldynKernel, "computeforces", be), lo, hi
				}
				before := rt.ScanEntries
				rt.Validate(forceDescs...)
				scans[me] += rt.ScanUSPerEntry * float64(rt.ScanEntries-before) / 1e6
			}
			for i := range lf {
				lf[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(3*n))
			for k := lo; k < hi; k++ {
				n1 := int(space.ReadI32(interArr.Base + vm.Addr(8*k)))
				n2 := int(space.ReadI32(interArr.Base + vm.Addr(8*k+4)))
				for dd := 0; dd < 3; dd++ {
					f := apps.MinImage(
						space.ReadF64(xArr.Base+vm.Addr(8*(3*n1+dd)))-
							space.ReadF64(xArr.Base+vm.Addr(8*(3*n2+dd))), w.L)
					lf[3*n1+dd] += f
					lf[3*n2+dd] -= f
				}
			}
			proc.Advance(cost.InteractionUS * float64(hi-lo))

			// Pipelined update of the shared forces (Figure 2); ablation
			// A4 (READ&WRITE stages) is nbf's no_write_all.
			apps.PipelinedReduce(proc, node, rt, stages, fArr, lf, 3, barPipeline, cost.ReduceUSPerElem)

			// Integrate own block: x <- wrap(q(x + dt*f + drift)).
			if mlo < mhi {
				if opt.Optimized {
					rt.Validate(integrateDescs...)
				}
				for i := mlo; i < mhi; i++ {
					for dd := 0; dd < 3; dd++ {
						xv := space.ReadF64(xArr.Base + vm.Addr(8*(3*i+dd)))
						fv := space.ReadF64(fArr.Base + vm.Addr(8*(3*i+dd)))
						space.WriteF64(xArr.Base+vm.Addr(8*(3*i+dd)),
							apps.Integrate(xv, fv, w.Drift[3*i+dd], w.L))
					}
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
	ep.CollectShared(d, xArr, fArr, 3*n)
	d.Close()
	return ep.Res
}

// rebuildParallel rebuilds the interaction list cooperatively: every
// processor reads the current coordinates through shared memory, scans
// the rows i with i mod nprocs == me (balancing the triangular loop),
// sorts its pairs by the almost-owner-computes owner, exchanges the
// per-owner counts to compute deterministic write offsets, and stores
// each owner's pairs into that owner's section of the shared list. The
// stores fault, twin, and diff through the normal protocol — the writes
// to the write-protected indirection pages are exactly what flips every
// processor's Validate modified flag. With a runtime, descs (the
// compiled buildlist) prefetch the coordinates first.
func rebuildParallel(proc *sim.Proc, node *tmk.Node, rt *core.Runtime, descs []core.Desc, w *Workload,
	p *Params, xArr, interArr *core.Array, startsAddr vm.Addr) {

	me := proc.ID()
	nprocs := proc.NProcs()
	space := node.Space()
	n := p.N

	// Every processor needs all current coordinates for the distance
	// checks; the optimized version prefetches them aggregated.
	if rt != nil {
		rt.Validate(descs...)
	}
	x := make([]float64, 3*n)
	for i := range x {
		x[i] = space.ReadF64(xArr.Base + vm.Addr(8*i))
	}
	pairs, checks := BuildPairs(p, w.L, x, nprocs, me)
	proc.Advance(p.Costs.RebuildUSPerCheck * float64(checks))
	byOwner, bounds := chaos.PartitionPairs(pairs, w.Part)
	counts := make([]int, nprocs)
	for o := range counts {
		counts[o] = bounds[o+1] - bounds[o]
	}

	// Exchange bucket counts; the manager computes each builder's write
	// offset within each owner's section, and the section boundaries.
	type offsetsReply struct {
		offs   []int
		starts []int
	}
	reply := proc.BarrierExchange(barRebuildCounts, counts, 4*nprocs,
		func(contrib []any) ([]any, []int, float64) {
			all := make([][]int, len(contrib))
			for b := range contrib {
				all[b] = contrib[b].([]int)
			}
			nb := len(contrib)
			starts := make([]int, nb+1)
			offs := make([][]int, nb)
			for b := range offs {
				offs[b] = make([]int, nb)
			}
			pos := 0
			for o := 0; o < nb; o++ {
				starts[o] = pos
				for b := 0; b < nb; b++ {
					offs[b][o] = pos
					pos += all[b][o]
				}
			}
			starts[nb] = pos
			replies := make([]any, nb)
			rb := make([]int, nb)
			for b := range replies {
				replies[b] = &offsetsReply{offs: offs[b], starts: starts}
				rb[b] = 4 * (2*nb + 1)
			}
			return replies, rb, float64(nb*nb) * 0.05
		})
	r := reply.(*offsetsReply)
	if 2*r.starts[nprocs] > interArr.Len {
		panic("moldyn: interaction list exceeded shared capacity")
	}
	for o := range counts {
		k := r.offs[o]
		for _, pr := range byOwner[bounds[o]:bounds[o+1]] {
			space.WriteI32(interArr.Base+vm.Addr(8*k), pr[0])
			space.WriteI32(interArr.Base+vm.Addr(8*k+4), pr[1])
			k++
		}
	}
	if me == 0 {
		for i, s := range r.starts {
			space.WriteI64(startsAddr+vm.Addr(8*i), int64(s))
		}
	}
}

// writePairs stores the pair list and section boundaries.
func writePairs(space *vm.Space, interArr *core.Array, startsAddr vm.Addr,
	pairs [][2]int32, starts []int) {
	for k, pr := range pairs {
		space.WriteI32(interArr.Base+vm.Addr(8*k), pr[0])
		space.WriteI32(interArr.Base+vm.Addr(8*k+4), pr[1])
	}
	for i, s := range starts {
		space.WriteI64(startsAddr+vm.Addr(8*i), int64(s))
	}
}
