// Package moldyn implements the paper's first application (§5.1): a
// molecular-dynamics simulation whose computational structure resembles
// the non-bonded force calculation in CHARMM. An interaction list of all
// molecule pairs within a cutoff radius serves as the indirection array;
// because molecules move, the list is rebuilt every UPDATE_INTERVAL
// steps — the event that forces CHAOS to re-run its inspector and that
// the optimized TreadMarks system detects through write protection.
//
// Four backends share one workload and one (quantized, hence exactly
// reproducible) numeric kernel: RunSequential, RunTmk (base and
// optimized), and RunChaos.
package moldyn

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Costs is the compute-cost model (microseconds), shared by all
// backends so comparisons isolate communication behaviour.
type Costs struct {
	InteractionUS     float64 // one pair force evaluation
	IntegrateUSPerMol float64 // one molecule position update
	ZeroUSPerElem     float64 // zeroing one local-force element
	ReduceUSPerElem   float64 // one element of the force reduction
	RebuildUSPerCheck float64 // one candidate-pair distance check
}

// DefaultCosts returns the calibrated model (DESIGN.md §2). The
// interaction cost reflects a late-90s CPU evaluating one cutoff pair
// (tens to hundreds of flops plus the indirection); the rebuild cost per
// candidate check keeps the paper's ratio of rebuild time to step time
// (the sequential time grows ~40% per extra rebuild in Table 1).
func DefaultCosts() Costs {
	return Costs{
		InteractionUS:     0.4,
		IntegrateUSPerMol: 0.20,
		ZeroUSPerElem:     0.004,
		ReduceUSPerElem:   0.010,
		RebuildUSPerCheck: 3.8,
	}
}

// Params configures a moldyn experiment.
type Params struct {
	N           int     // number of molecules
	Steps       int     // simulation steps (all timed, as in the paper)
	UpdateEvery int     // interaction-list rebuild interval; 0 = never
	Procs       int     // processors for the parallel backends
	Cutoff      float64 // interaction cutoff radius (absolute)
	CutoffFrac  float64 // if > 0, Cutoff is set to this fraction of the box side at Generate
	Density     float64 // molecules per unit volume (sets the box side)
	Seed        int64
	PageSize    int
	// Table is the CHAOS translation-table organization and, for Paged,
	// its per-processor cache bound (0 = unbounded). The memory
	// capacity policy (mem.PlanTable) sets it when a budget is in force.
	Table mem.TablePlan
	// MaxMsgB overrides the simulated machine's fragmentation threshold
	// (0 = sim.DefaultConfig). The memory ablation's anecdote run uses a
	// large value: the measured CHAOS program's bulk inspector exchanges
	// were not fragmented at the paper's message-count granularity.
	MaxMsgB int
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine apps.Machine
	Costs   Costs
	// Inspector is the CHAOS inspector cost model, calibrated so one
	// inspector execution costs the paper's ~7-9 step-times per
	// processor (4.6-9.2 s against 0.5 s per-processor steps).
	Inspector chaos.InspectorCost
}

// DefaultParams mirrors the paper's setup at a configurable scale: the
// paper simulates 16384 molecules for 40 steps on 8 processors with the
// list updated every 20/15/11 steps, a cutoff within which 31-53% of the
// molecules interact, and the distributed translation table (they could
// not afford a replicated one). Costs are calibrated so that the
// rebuild-to-step time ratio matches the paper's sequential column
// (~24 steps' worth per rebuild: 267->467 s as rebuilds go 1->3).
func DefaultParams(n, procs int) Params {
	return Params{
		N:           n,
		Steps:       40,
		UpdateEvery: 20,
		Procs:       procs,
		CutoffFrac:  0.457,
		Density:     0.0625,
		Seed:        1997,
		PageSize:    4096,
		Table:       mem.TablePlan{Kind: chaos.Distributed},
		Costs:       DefaultCosts(),
		Inspector:   chaos.InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: true},
	}
}

// Workload is the generated input: initial lattice positions and
// per-molecule drift velocities (all quantized), plus the set-up every
// backend shares. The paper excludes initialisation and partitioning
// from every measurement, so Generate computes the set-up once; the
// backends only read it (a rebuild allocates its own storage).
type Workload struct {
	P     Params
	L     float64   // box side
	X0    []float64 // 3N initial coordinates
	Drift []float64 // 3N per-step drift (models thermal motion)

	Part   *chaos.Partition // RCB partition of X0 over P.Procs
	Sorted [][2]int32       // initial interaction list by owner under Part (chaos.PartitionPairs)
	Starts []int            // processor p's pairs are Sorted[Starts[p]:Starts[p+1]]
}

// Generate builds the workload deterministically from Params.Seed.
func Generate(p Params) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	side := apps.CubeRoot(float64(p.N) / p.Density)
	l := apps.Q(side)
	if p.CutoffFrac > 0 {
		// The paper's data set has each molecule interacting with
		// 31-53% of the molecules; a cutoff of ~0.457 of the box side
		// puts ~40% of the volume inside the cutoff sphere.
		p.Cutoff = p.CutoffFrac * l
	}
	x := make([]float64, 3*p.N)
	drift := make([]float64, 3*p.N)
	for i := 0; i < 3*p.N; i++ {
		x[i] = apps.Q(rng.Float64() * l)
		if x[i] >= l {
			x[i] = 0
		}
		// Drift magnitude ~ a few lattice steps per time step, enough to
		// change the interaction list between rebuilds.
		drift[i] = apps.Q((rng.Float64() - 0.5) * 0.08)
	}
	w := &Workload{P: p, L: l, X0: x, Drift: drift}
	pairs, _ := BuildPairs(&w.P, l, x, 1, 0)
	w.Part = chaos.RCB(Coords(x), p.Procs)
	w.Sorted, w.Starts = chaos.PartitionPairs(pairs, w.Part)
	return w
}

// Coords converts flat coordinates to the [][3]float64 view RCB expects.
func Coords(x []float64) [][3]float64 {
	n := len(x) / 3
	out := make([][3]float64, n)
	for i := range out {
		out[i] = [3]float64{x[3*i], x[3*i+1], x[3*i+2]}
	}
	return out
}

// BuildPairs computes the interaction pairs (i<j, minimum-image
// distance at most Cutoff) whose first molecule i satisfies
// i % mod == eq, in deterministic order, plus the number of candidate
// checks performed (the rebuild's compute cost). BuildPairs(p, l, x, 1, 0)
// is the paper-era exhaustive N^2/2 scan; the parallel rebuilds give
// each processor an interleaved subset of the rows, which balances the
// triangular loop. The union over eq is the (1, 0) pair set in another
// order; force accumulation is exact, so results are unchanged.
func BuildPairs(p *Params, l float64, x []float64, mod, eq int) (pairs [][2]int32, checks int64) {
	n := p.N
	rc2 := p.Cutoff * p.Cutoff
	var b apps.PairBuilder
	for i := eq; i < n; i += mod {
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		for j := i + 1; j < n; j++ {
			checks++
			dx := apps.MinImage(xi-x[3*j], l)
			dy := apps.MinImage(yi-x[3*j+1], l)
			dz := apps.MinImage(zi-x[3*j+2], l)
			if dx*dx+dy*dy+dz*dz <= rc2 {
				b.Add(int32(i), int32(j))
			}
		}
	}
	return b.Pairs(), checks
}

// simConfig returns the simulated-machine description for this
// workload: the SP2 default with the workload's overrides applied.
func (p *Params) simConfig() sim.Config {
	cfg := p.Machine.Config(p.Procs)
	if p.MaxMsgB > 0 {
		cfg.MaxMsgB = p.MaxMsgB
	}
	return cfg
}
