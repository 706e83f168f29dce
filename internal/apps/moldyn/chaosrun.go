// The CHAOS backend (§5.1): RCB partition, remapped local arrays, an
// inspector run at program start and after every interaction-list
// rebuild, and schedule-driven gather/scatter in ComputeForces. The
// paper could not afford a replicated translation table at this problem
// size, so the table is distributed, which makes the inspector
// communicate.
package moldyn

import (
	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// RunChaos executes the workload with the inspector-executor library.
func RunChaos(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	cost := p.Costs
	ecost := chaos.DefaultExecutorCost()

	ep := apps.NewEpisode("chaos", p.simConfig())
	ep.Res.TableOrg = p.Table.Kind.String()
	cl := ep.Cluster
	part := w.Part
	tt := chaos.NewTransTable(part, p.Table.Kind)
	tt.CachePages = p.Table.CachePages
	counts := part.Counts()
	ownGlobals := part.Owned() // in local-offset order

	inspectorSec := ep.PerProc("inspector_s")
	xs, fs := make([][]float64, nprocs), make([][]float64, nprocs)

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		own := counts[me]
		mem := &cl.Mem
		ep.Start(proc)

		// Working state: current pair section (the workload's, read
		// only, until the first rebuild) and local arrays.
		lo, hi := w.Starts[me], w.Starts[me+1]
		pairs := w.Sorted[lo:hi:hi]
		mem.Alloc(me, apps.MemCatPairs, int64(8*len(pairs)))
		// xGlob is this proc's replicated coordinate copy, refreshed at
		// every rebuild (allgather) and used only to rebuild the list.
		xGlob := append([]float64(nil), w.X0...)
		mem.Alloc(me, apps.MemCatReplica, int64(8*len(xGlob)))

		var sch *chaos.Schedule
		var xLoc, fLoc []float64
		var dataBytes int64
		tag := 0

		runInspector := func() {
			t0 := proc.Clock()
			if sch != nil {
				sch.ReleaseMem(proc) // replaced by the re-run below
			}
			sch = chaos.InspectStream(proc, tag, apps.PairRefs(pairs), tt, p.Inspector)
			slots := own + sch.Ghosts
			mem.Free(me, apps.MemCatData, dataBytes)
			dataBytes = int64(2 * 8 * 3 * slots) // xLoc + fLoc
			mem.Alloc(me, apps.MemCatData, dataBytes)
			xLoc = make([]float64, 3*slots)
			fLoc = make([]float64, 3*slots)
			// Fill owned coordinates from the replicated copy.
			for k, g := range ownGlobals[me] {
				for dd := 0; dd < 3; dd++ {
					xLoc[3*k+dd] = xGlob[3*g+dd]
				}
			}
			inspectorSec[me] += (proc.Clock() - t0) / 1e6
		}
		runInspector()

		for step := 1; step <= p.Steps; step++ {
			if p.UpdateEvery > 0 && step > 1 && (step-1)%p.UpdateEvery == 0 {
				// Allgather coordinates, rebuild the list in parallel
				// (each processor scans interleaved rows and the pair
				// buckets are exchanged all-to-all), re-run the
				// inspector.
				tag++
				allgatherX(proc, tag, part, ownGlobals, xLoc, xGlob)
				myPairs, checks := BuildPairs(&p, w.L, xGlob, nprocs, me)
				proc.Advance(cost.RebuildUSPerCheck * float64(checks))
				tag++
				mem.Free(me, apps.MemCatPairs, int64(8*len(pairs)))
				pairs = exchangePairs(proc, tag, myPairs, part)
				mem.Alloc(me, apps.MemCatPairs, int64(8*len(pairs)))
				tag++
				runInspector()
			}

			// Gather off-processor coordinates and forces. The paper's
			// program gathers both ("Both x and forces are modified
			// elsewhere, necessitating the gather"); our formulation
			// recomputes forces from zero each step, so the gathered
			// force values are immediately overwritten — the exchange is
			// kept for communication parity with the measured program.
			tag++
			chaos.Gather(proc, tag, sch, xLoc, 3, ecost)
			tag++
			chaos.Gather(proc, tag, sch, fLoc, 3, ecost)

			// Force computation into local (owned + ghost) slots.
			for i := range fLoc {
				fLoc[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(len(fLoc)))
			for _, pr := range pairs {
				l1 := int(sch.LocalOf(int(pr[0])))
				l2 := int(sch.LocalOf(int(pr[1])))
				for dd := 0; dd < 3; dd++ {
					f := apps.MinImage(xLoc[3*l1+dd]-xLoc[3*l2+dd], w.L)
					fLoc[3*l1+dd] += f
					fLoc[3*l2+dd] -= f
				}
			}
			proc.Advance(cost.InteractionUS * float64(len(pairs)))

			// Scatter force contributions back to their owners.
			tag++
			chaos.ScatterAdd(proc, tag, sch, fLoc, 3, ecost)

			// Integrate owned molecules.
			for k, g := range ownGlobals[me] {
				for dd := 0; dd < 3; dd++ {
					xLoc[3*k+dd] = apps.Integrate(xLoc[3*k+dd], fLoc[3*k+dd], w.Drift[3*g+dd], w.L)
				}
			}
			proc.Advance(cost.IntegrateUSPerMol * float64(own))
		}
		ep.End(proc)
		xs[me], fs[me] = xLoc[:3*own], fLoc[:3*own]
		// Teardown: return the app-level charges so the ledger balances.
		mem.Free(me, apps.MemCatData, dataBytes)
		mem.Free(me, apps.MemCatPairs, int64(8*len(pairs)))
		mem.Free(me, apps.MemCatReplica, int64(8*len(xGlob)))
		sch.ReleaseMem(proc)
	})
	tt.ReleaseMem(cl)

	ep.Finish()
	ep.TrafficDetail()
	apps.Assemble(ep.Res, ownGlobals, 3, xs, fs)
	return ep.Res
}

// allgatherX refreshes every processor's replicated coordinate copy: each
// processor broadcasts its owned block ("chaos.allgather", one message
// per peer), then merges what it receives.
func allgatherX(proc *sim.Proc, tag int, part *chaos.Partition,
	ownGlobals [][]int, xLoc []float64, xGlob []float64) {

	me := proc.ID()
	nprocs := part.NProcs
	mine := make([]float64, 3*len(ownGlobals[me]))
	copy(mine, xLoc[:3*len(ownGlobals[me])])
	for q := 0; q < nprocs; q++ {
		if q != me {
			proc.Send(q, "chaos.allgather", tag, mine, 8*len(mine))
		}
	}
	// Own block.
	for k, g := range ownGlobals[me] {
		for dd := 0; dd < 3; dd++ {
			xGlob[3*g+dd] = xLoc[3*k+dd]
		}
	}
	proc.RecvEach("chaos.allgather", tag, nprocs-1, func(from int, payload any) {
		vals := payload.([]float64)
		for k, g := range ownGlobals[from] {
			for dd := 0; dd < 3; dd++ {
				xGlob[3*g+dd] = vals[3*k+dd]
			}
		}
	})
}

// exchangePairs routes each builder's pairs, sorted by owner, to their
// owners ("chaos.pairx", one message per pair of processors) and returns
// this processor's section in new storage: the concatenation, in
// builder order, of every builder's section for it — the same
// deterministic layout the TreadMarks backend stores in shared memory.
// A sent section is never written again, by either side.
func exchangePairs(proc *sim.Proc, tag int, pairs [][2]int32, part *chaos.Partition) [][2]int32 {
	me := proc.ID()
	np := proc.NProcs()
	sorted, starts := chaos.PartitionPairs(pairs, part)
	byBuilder := make([][][2]int32, np)
	byBuilder[me] = sorted[starts[me]:starts[me+1]]
	for o := 0; o < np; o++ {
		if o == me {
			continue
		}
		sec := sorted[starts[o]:starts[o+1]:starts[o+1]]
		proc.Send(o, "chaos.pairx", tag, sec, 8*len(sec))
	}
	total := len(byBuilder[me])
	proc.RecvEach("chaos.pairx", tag, np-1, func(from int, payload any) {
		byBuilder[from] = payload.([][2]int32)
		total += len(byBuilder[from])
	})
	out := make([][2]int32, 0, total)
	for b := 0; b < np; b++ {
		out = append(out, byBuilder[b]...)
	}
	return out
}
