// The TreadMarks backends (§5.1): coordinates and forces live in shared
// memory; each processor accumulates force contributions in a private
// local_forces array and the processors then update the shared forces in
// a pipelined fashion in nprocs steps (Figure 2). The base variant runs
// on demand paging alone; the optimized variant carries the
// compiler-inserted Validate calls — an INDIRECT descriptor on x through
// the interaction-list section at the top of ComputeForces, and DIRECT
// descriptors for the pipelined reduction and the integration loop.
package moldyn

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rsd"
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
	Optimized        bool  // compiler-inserted Validate calls
	NoAggregation    bool  // ablation A1: Validate without message aggregation
	NoWriteAll       bool  // ablation A2: reductions use READ&WRITE (twinned diffs)
	Incremental      bool  // extension S13: incremental page-set recomputation
	GCThresholdBytes int64 // extension S16: consistency-data GC threshold (0 = off)
}

// RunTmk executes the workload on the TreadMarks DSM.
func RunTmk(w *Workload, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.N
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.simConfig())
	cl := ep.Cluster
	// Capacity for the shared interaction list: the pair count drifts as
	// molecules move; 1.5x the initial count plus slack covers it.
	initPairs, _ := BuildPairs(&p, w.L, w.X0)
	capPairs := len(initPairs)*3/2 + 4096

	arenaBytes := apps.PageRound(24*n, p.PageSize) + apps.PageRound(8*3*n, p.PageSize) +
		apps.PageRound(8*capPairs, p.PageSize) + apps.PageRound(8*(nprocs+2), p.PageSize) +
		8*p.PageSize
	d := tmk.New(cl, p.PageSize, arenaBytes)
	d.GCThresholdBytes = opt.GCThresholdBytes

	xArr := &core.Array{Name: "x", Base: d.Alloc(24 * n), ElemSize: 24, Len: n}
	fArr := &core.Array{Name: "forces", Base: d.Alloc(8 * 3 * n), ElemSize: 8, Len: 3 * n}
	interArr := &core.Array{Name: "interaction_list", Base: d.Alloc(8 * capPairs), ElemSize: 4, Len: 2 * capPairs}
	startsAddr := d.Alloc(8 * (nprocs + 1))

	// Initialization (untimed, like the paper): proc 0 lays out the
	// coordinates, the RCB-partitioned interaction list, and the section
	// boundaries.
	part := chaos.RCB(Coords(w.X0), nprocs)
	s0 := d.Node(0).Space()
	for i := 0; i < 3*n; i++ {
		s0.WriteF64(xArr.Base+vm.Addr(8*i), w.X0[i])
		s0.WriteF64(fArr.Base+vm.Addr(8*i), 0)
	}
	sorted, starts := PartitionPairs(initPairs, part)
	writePairs(s0, interArr, startsAddr, sorted, starts)
	d.SealInit()

	scans := ep.PerProc("scan_s") // indirection-scan seconds

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		var rt *core.Runtime
		if opt.Optimized {
			rt = core.NewRuntime(node)
			rt.NoAggregation = opt.NoAggregation
			rt.Incremental = opt.Incremental
		}
		ep.Meas.Start(proc)

		lf := make([]float64, 3*n) // private local_forces (full size; §5.1)
		cl.Mem.Alloc(me, apps.MemCatPrivate, int64(8*len(lf)))
		mlo, mhi := chaos.BlockRange(n, nprocs, me)

		for step := 1; step <= p.Steps; step++ {
			// Rebuild the interaction list in parallel: each processor
			// scans an interleaved subset of the rows and the sections
			// are merged deterministically in shared memory.
			if p.UpdateEvery > 0 && step > 1 && (step-1)%p.UpdateEvery == 0 {
				node.Barrier(barBeforeRebuild)
				rebuildParallel(proc, node, rt, w, &p, part, xArr, interArr, startsAddr)
				node.Barrier(barAfterRebuild)
			}

			// ComputeForces: read section bounds, then the pair loop.
			lo := int(space.ReadI64(startsAddr + vm.Addr(8*me)))
			hi := int(space.ReadI64(startsAddr + vm.Addr(8*(me+1))))
			if opt.Optimized {
				before := rt.ScanEntries
				rt.Validate(forceDesc(xArr, interArr, lo, hi, capPairs))
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

			// Pipelined update of the shared forces (Figure 2).
			apps.PipelinedReduce(proc, node, rt, fArr, lf, 3, barPipeline, opt.NoWriteAll, cost.ReduceUSPerElem)

			// Integrate own block: x <- wrap(q(x + dt*f + drift)).
			if mlo < mhi {
				if opt.Optimized {
					rt.Validate(
						core.Desc{Type: core.Direct, Data: fArr,
							Section: rsd.Range1(3*mlo, 3*mhi-1),
							Access:  core.Read, Sched: 3},
						core.Desc{Type: core.Direct, Data: xArr,
							Section: rsd.Range1(mlo, mhi-1),
							Access:  core.ReadWriteAll, Sched: 4},
					)
				}
				for i := mlo; i < mhi; i++ {
					for dd := 0; dd < 3; dd++ {
						xv := space.ReadF64(xArr.Base + vm.Addr(8*(3*i+dd)))
						fv := space.ReadF64(fArr.Base + vm.Addr(8*(3*i+dd)))
						space.WriteF64(xArr.Base+vm.Addr(8*(3*i+dd)),
							integrate(xv, fv, w.Drift[3*i+dd], w.L))
					}
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
	ep.CollectShared(d, xArr, fArr, 3*n)
	d.Close()
	return ep.Res
}

// forceDesc is the descriptor the optimized program validates at the
// top of ComputeForces: x through the section [0:1, lo:hi-1] of the
// interaction list (capPairs pairs of capacity).
func forceDesc(xArr, interArr *core.Array, lo, hi, capPairs int) core.Desc {
	return core.Desc{Type: core.Indirect, Data: xArr, Indir: interArr,
		Section:   rsd.New(rsd.Dim{Lo: 0, Hi: 1, Stride: 1}, rsd.Dim{Lo: lo, Hi: hi - 1, Stride: 1}),
		IndirDims: []int{2, capPairs}, Access: core.Read, Sched: 1}
}

// rebuildParallel rebuilds the interaction list cooperatively: every
// processor reads the current coordinates through shared memory, scans
// the rows i with i mod nprocs == me (balancing the triangular loop),
// buckets its pairs by the almost-owner-computes owner, exchanges bucket
// counts to compute deterministic write offsets, and stores its buckets
// into the shared list. The stores fault, twin, and diff through the
// normal protocol — the writes to the write-protected indirection pages
// are exactly what flips every processor's Validate modified flag.
func rebuildParallel(proc *sim.Proc, node *tmk.Node, rt *core.Runtime, w *Workload,
	p *Params, part *chaos.Partition, xArr, interArr *core.Array, startsAddr vm.Addr) {

	me := proc.ID()
	nprocs := proc.NProcs()
	space := node.Space()
	n := p.N

	// Every processor needs all current coordinates for the distance
	// checks; the optimized version prefetches them aggregated.
	if rt != nil {
		rt.Validate(core.Desc{Type: core.Direct, Data: xArr,
			Section: rsd.Range1(0, n-1), Access: core.Read, Sched: 5})
	}
	x := make([]float64, 3*n)
	for i := range x {
		x[i] = space.ReadF64(xArr.Base + vm.Addr(8*i))
	}
	pairs, checks := BuildPairsStrided(p, w.L, x, nprocs, me)
	proc.Advance(p.Costs.RebuildUSPerCheck * float64(checks))
	buckets := BucketPairsByOwner(pairs, part)
	counts := make([]int, nprocs)
	for o := range buckets {
		counts[o] = len(buckets[o])
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
	for o, bucket := range buckets {
		k := r.offs[o]
		for _, pr := range bucket {
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
