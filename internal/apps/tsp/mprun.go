// The message-passing backend for TSP: a PVM-style master/worker
// program, the hand-written contrast the source paper draws against the
// DSM versions. There is no shared memory and no lock: tasks are
// assigned round-robin (the static analog of the shared queue) and the
// global bound lives at the master, refreshed by one gather/broadcast
// exchange per round — each worker sends its best tour to the master,
// the master merges (a (cost, lex)-min, order-insensitive) and
// broadcasts the result. The exchange uses RecvEach, so the merge order
// and every clock are deterministic (DESIGN.md §7).
package tsp

import (
	"repro/internal/apps"
	"repro/internal/sim"
)

const (
	kindBest  = "mp.best"  // worker -> master round contribution
	kindBcast = "mp.bcast" // master -> workers merged bound
)

// bestMsg carries one (cost, tour) bound. The tour slice is never
// mutated after send (searchers replace, not update, their best).
type bestMsg struct {
	cost int64
	tour []int32
}

func (m bestMsg) bytes() int { return 8 + 4*len(m.tour) }

// RunMP executes TSP as a message-passing master/worker program.
func RunMP(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	ep := apps.NewEpisode("mp", p.Machine.Config(nprocs))
	rounds := (len(w.Tasks) + nprocs - 1) / nprocs

	finals := make([]*searcher, nprocs)
	ep.Cluster.Run(func(proc *sim.Proc) {
		me := proc.ID()
		s := newSearcher(w)
		finals[me] = s
		ep.Meas.Start(proc)
		for r := 0; r < rounds; r++ {
			if ti := r*nprocs + me; ti < len(w.Tasks) {
				nodes := s.exploreTask(w.Tasks[ti])
				proc.Advance(p.Costs.NodeUS * float64(nodes))
			}
			if nprocs == 1 {
				continue
			}
			if me == 0 {
				// Master: merge the workers' round bests with its own and
				// broadcast. The merge is a semilattice min, insensitive
				// to drain order, but RecvEach fixes the order anyway.
				proc.RecvEach(kindBest, r, nprocs-1, func(from int, payload any) {
					m := payload.(bestMsg)
					s.adopt(m.cost, m.tour)
				})
				out := bestMsg{cost: s.bestCost, tour: s.bestTour}
				for q := 1; q < nprocs; q++ {
					proc.Send(q, kindBcast, r, out, out.bytes())
				}
			} else {
				m := bestMsg{cost: s.bestCost, tour: s.bestTour}
				proc.Send(0, kindBest, r, m, m.bytes())
				_, payload := proc.Recv(kindBcast, r)
				g := payload.(bestMsg)
				s.adopt(g.cost, g.tour)
			}
		}
		ep.Meas.End(proc)
	})

	master := finals[0]
	res := resultOf(ep.Finish(), master.bestCost, master.bestTour)
	ep.TrafficDetail()
	var nodes int64
	for _, s := range finals {
		nodes += s.nodes
	}
	res.AddDetail("nodes", float64(nodes))
	return res
}
