// The message-passing backend for taskq: the counter lives at a master
// (processor 0, a pure coordinator), and workers claim items by
// request/reply rounds — the PVM-style centralized work queue. Each
// round, every still-active worker sends a claim; the master drains
// them with RecvEach (so the assignment order is the message total
// order, deterministic by DESIGN.md §7) and replies with the next item
// index, or -1 once the queue is dry, which retires that worker.
package taskq

import (
	"repro/internal/apps"
	"repro/internal/sim"
)

const (
	kindClaim = "mp.claim"
	kindGrant = "mp.grant"
	noItem    = int64(-1)
)

// RunMP executes taskq as a message-passing master/worker program.
func RunMP(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	ep := apps.NewEpisode("mp", p.Machine.Config(nprocs))

	var counter, sum int64
	ep.Cluster.Run(func(proc *sim.Proc) {
		me := proc.ID()
		ep.Meas.Start(proc)
		if nprocs == 1 {
			// Degenerate cluster: the master drains the queue itself.
			for i := 0; i < p.N; i++ {
				counter++
				sum += int64(i)
				proc.Advance(w.WorkUS[i])
			}
			ep.Meas.End(proc)
			return
		}
		if me == 0 {
			active := nprocs - 1
			for round := 0; active > 0; round++ {
				var claimants []int
				proc.RecvEach(kindClaim, round, active, func(from int, payload any) {
					claimants = append(claimants, from)
				})
				for _, q := range claimants {
					idx := noItem
					if counter < int64(p.N) {
						idx = counter
						counter++
						sum += idx
					} else {
						active-- // a -1 reply retires the worker
					}
					proc.Send(q, kindGrant, round, idx, 8)
				}
			}
		} else {
			for round := 0; ; round++ {
				proc.Send(0, kindClaim, round, nil, 4)
				_, payload := proc.Recv(kindGrant, round)
				idx := payload.(int64)
				if idx == noItem {
					break
				}
				proc.Advance(w.WorkUS[idx])
			}
		}
		ep.Meas.End(proc)
	})

	res := resultOf(ep.Finish(), counter, sum)
	ep.TrafficDetail()
	return res
}
