// Package taskq implements the migratory-counter task queue: the
// minimal lock-stress workload behind Table 4 and the arbiter
// contention tests. A single shared counter is the queue head; claiming
// item i means reading the counter at value i and bumping it, then
// "processing" the item by spinning for its (seeded, per-item) compute
// cost. The counter page migrates from lock holder to lock holder —
// the pure form of the migratory-data access pattern the TreadMarks
// lock path exists to serve, with none of an application's compute to
// dilute it.
//
// The final state is assignment-independent by construction: the
// counter ends at N, and the checksum is the sum of every observed
// pre-increment value, Σ i = N(N-1)/2, an integer total that every
// variant reports identically no matter which processor claimed which
// item. Within a variant, runs are byte-identical (times included):
// claim order is fixed by the deterministic arbiter in the DSM
// variants and by the RecvEach drain order in the message-passing one.
package taskq

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/sim"
)

// Params configures a taskq experiment.
type Params struct {
	N        int // total items (counter increments)
	WorkLoUS int // least per-item compute, microseconds
	WorkHiUS int // greatest per-item compute
	Batch    int // items claimed per lock acquire by the batched variant
	Procs    int
	Seed     int64
	PageSize int
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine apps.Machine
}

// DefaultParams returns the standard configuration: items costing
// 20..120us against a lock round-trip of a few hundred simulated us —
// heavy contention by design.
func DefaultParams(n, procs int) Params {
	return Params{
		N:        n,
		WorkLoUS: 20,
		WorkHiUS: 120,
		Batch:    8,
		Procs:    procs,
		Seed:     5,
		PageSize: 4096,
	}
}

// Workload is the generated input: the per-item compute costs.
type Workload struct {
	P      Params
	WorkUS []float64 // per-item compute cost (integer-valued, exact)
}

// Generate builds the workload deterministically from Params.Seed.
func Generate(p Params) *Workload {
	if p.N < 1 {
		panic(fmt.Sprintf("taskq: need at least one item, got %d", p.N))
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.Batch < 1 {
		p.Batch = 1
	}
	if p.WorkHiUS < p.WorkLoUS {
		p.WorkHiUS = p.WorkLoUS
	}
	rng := rand.New(rand.NewSource(p.Seed))
	w := &Workload{P: p, WorkUS: make([]float64, p.N)}
	for i := range w.WorkUS {
		w.WorkUS[i] = float64(p.WorkLoUS + rng.Intn(p.WorkHiUS-p.WorkLoUS+1))
	}
	return w
}

// resultOf stores the final counter and checksum as the common Result
// state (X = [counter], Forces = [checksum]), asserted with == across
// variants by the harness.
func resultOf(r *apps.Result, counter, sum int64) *apps.Result {
	r.X, r.Forces = []float64{float64(counter)}, []float64{float64(sum)}
	return r
}

// RunSequential is the reference program: one processor drains the
// whole queue.
func RunSequential(w *Workload) *apps.Result {
	ep := apps.NewEpisode("seq", sim.DefaultConfig(1))
	proc := ep.Cluster.Proc(0)
	ep.Meas.Start(proc)
	var sum int64
	for i := 0; i < w.P.N; i++ {
		sum += int64(i)
		proc.Advance(w.WorkUS[i])
	}
	ep.Meas.End(proc)
	res := resultOf(ep.Res, int64(w.P.N), sum)
	res.TimeSec = ep.Meas.TimeSec()
	res.Speedup = 1
	return res
}
