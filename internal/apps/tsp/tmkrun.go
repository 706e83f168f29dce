// The TreadMarks backends for TSP: the task queue (a shared next-task
// cursor) and the global bound (cost + tour, on one page) live in the
// DSM, each protected by its own lock. The base variant claims one task
// per queue-lock acquire — the textbook TreadMarks TSP structure; the
// batched variant claims Params.Batch tasks per acquire, amortizing the
// lock round-trip and its notice freight the same way the paper's
// compiler aggregates page fetches. Workers prune against the bound as
// of their last acquire (stale reads are free and deterministic — the
// local copy only changes when this worker acquires) and publish
// improvements under the bound lock with a (cost, lex) re-check.
//
// Grant order, and with it task assignment, node counts, wait times,
// and all simulated times, is fixed by the deterministic arbiter
// (DESIGN.md §7); the final tour is variant-independent (see tsp.go).
package tsp

import (
	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

const (
	lockQueue = 1 // protects the next-task cursor
	lockBound = 2 // protects the (cost, tour) bound page
)

// TmkOptions selects the TreadMarks variant.
type TmkOptions struct {
	Batched bool // claim Params.Batch tasks per queue-lock acquire
}

// boundPage is the DSM layout of the global bound: an int64 cost
// followed by N int32 cities, together well under one page.
type boundPage struct {
	base vm.Addr
	n    int
}

func (b boundPage) read(space *vm.Space) (int64, []int32) {
	cost := space.ReadI64(b.base)
	if cost == noBest {
		return noBest, nil
	}
	tour := make([]int32, b.n)
	for i := range tour {
		tour[i] = space.ReadI32(b.base + vm.Addr(8+4*i))
	}
	return cost, tour
}

func (b boundPage) write(space *vm.Space, cost int64, tour []int32) {
	space.WriteI64(b.base, cost)
	for i, c := range tour {
		space.WriteI32(b.base+vm.Addr(8+4*i), c)
	}
}

// RunTmk executes TSP on the TreadMarks DSM.
func RunTmk(w *Workload, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	batch := 1
	if opt.Batched {
		batch = p.Batch
	}

	ep := apps.NewEpisode(apps.TmkSystem(opt.Batched), p.Machine.Config(nprocs))
	d := tmk.New(ep.Cluster, p.PageSize, 4*p.PageSize)
	qAddr := d.Alloc(8)
	bound := boundPage{base: d.Alloc(8 + 4*p.N), n: p.N}

	s0 := d.Node(0).Space()
	s0.WriteI64(qAddr, 0)
	s0.WriteI64(bound.base, noBest)
	d.SealInit()

	finals := make([]*searcher, nprocs)
	ep.Cluster.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		s := newSearcher(w)
		finals[me] = s
		ep.Meas.Start(proc)
		for {
			node.AcquireLock(lockQueue)
			lo := space.ReadI64(qAddr)
			hi := lo
			if lo < int64(len(w.Tasks)) {
				hi = lo + int64(batch)
				if hi > int64(len(w.Tasks)) {
					hi = int64(len(w.Tasks))
				}
				space.WriteI64(qAddr, hi)
			}
			node.ReleaseLock(lockQueue)
			if hi == lo {
				break
			}
			for ti := lo; ti < hi; ti++ {
				// Prune against the freshest bound this worker can see:
				// its local copy, current as of its last lock acquire.
				s.adopt(bound.read(space))
				nodes := s.exploreTask(w.Tasks[ti])
				proc.Advance(p.Costs.NodeUS * float64(nodes))
				if gc, gt := bound.read(space); Better(s.bestCost, s.bestTour, gc, gt) {
					node.AcquireLock(lockBound)
					if gc, gt := bound.read(space); Better(s.bestCost, s.bestTour, gc, gt) {
						bound.write(space, s.bestCost, s.bestTour)
					} else {
						s.adopt(gc, gt)
					}
					node.ReleaseLock(lockBound)
				}
			}
		}
		// The closing TreadMarks barrier publishes the last intervals, so
		// every node (and the post-run state collection) sees the final
		// bound.
		node.Barrier(1)
		ep.Meas.End(proc)
	})

	cost, tour := bound.read(d.Node(0).Space())
	res := resultOf(ep.Finish(), cost, tour)
	ep.TrafficDetail()
	var nodes int64
	for _, s := range finals {
		nodes += s.nodes
	}
	res.AddDetail("nodes", float64(nodes))
	d.Close()
	return res
}
