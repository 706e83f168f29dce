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
	TableKind   chaos.TableKind // translation-table organization for CHAOS
	// TableCachePages bounds the Paged table's per-processor cache
	// (chaos.TransTable.CachePages); 0 = unbounded. Set by the memory
	// capacity policy (internal/mem) when a budget is in force.
	TableCachePages int
	// MaxMsgB overrides the simulated machine's fragmentation threshold
	// (0 = sim.DefaultConfig). The memory ablation's anecdote run uses a
	// large value: the measured CHAOS program's bulk inspector exchanges
	// were not fragmented at the paper's message-count granularity.
	MaxMsgB     int
	CellRebuild bool // use an O(N) cell grid instead of the paper-era O(N^2) rebuild
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
		TableKind:   chaos.Distributed,
		Costs:       DefaultCosts(),
		Inspector:   chaos.InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: true},
	}
}

// Workload is the generated input: initial lattice positions and
// per-molecule drift velocities (all quantized).
type Workload struct {
	P     Params
	L     float64   // box side
	X0    []float64 // 3N initial coordinates
	Drift []float64 // 3N per-step drift (models thermal motion)
}

// Generate builds the workload deterministically from Params.Seed.
func Generate(p Params) *Workload {
	if p.Costs == (Costs{}) {
		p.Costs = DefaultCosts()
	}
	if p.Inspector == (chaos.InspectorCost{}) {
		p.Inspector = chaos.InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: true}
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	rng := rand.New(rand.NewSource(p.Seed))
	side := cubeSide(float64(p.N) / p.Density)
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
	return &Workload{P: p, L: l, X0: x, Drift: drift}
}

// cubeSide returns the cube root.
func cubeSide(v float64) float64 {
	s := v
	for i := 0; i < 64; i++ {
		s = (2*s + v/(s*s)) / 3
	}
	return s
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

// BuildPairs computes the interaction list for positions x: all pairs
// (i<j) with minimum-image distance at most Cutoff, in deterministic
// order, plus the number of candidate checks performed (the rebuild's
// compute cost). The paper-era code scans all N^2/2 pairs; CellRebuild
// enables a cell-grid search as an ablation.
func BuildPairs(p *Params, l float64, x []float64) (pairs [][2]int32, checks int64) {
	n := p.N
	rc2 := p.Cutoff * p.Cutoff
	if !p.CellRebuild {
		for i := 0; i < n; i++ {
			xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
			for j := i + 1; j < n; j++ {
				checks++
				dx := apps.MinImage(xi-x[3*j], l)
				dy := apps.MinImage(yi-x[3*j+1], l)
				dz := apps.MinImage(zi-x[3*j+2], l)
				if dx*dx+dy*dy+dz*dz <= rc2 {
					pairs = append(pairs, [2]int32{int32(i), int32(j)})
				}
			}
		}
		return pairs, checks
	}
	// Cell-grid variant: cells of side >= cutoff; scan half the 27
	// neighborhood to keep i<j order deterministic. With fewer than
	// three cells per side the periodic neighborhood aliases (the same
	// cell would be visited twice), so fall back to the exhaustive scan.
	nc := int(l / p.Cutoff)
	if nc < 3 {
		q := *p
		q.CellRebuild = false
		return BuildPairs(&q, l, x)
	}
	cellOf := func(i int) (int, int, int) {
		cx := int(x[3*i] / l * float64(nc))
		cy := int(x[3*i+1] / l * float64(nc))
		cz := int(x[3*i+2] / l * float64(nc))
		return clampCell(cx, nc), clampCell(cy, nc), clampCell(cz, nc)
	}
	cells := make([][]int32, nc*nc*nc)
	for i := 0; i < n; i++ {
		cx, cy, cz := cellOf(i)
		id := (cz*nc+cy)*nc + cx
		cells[id] = append(cells[id], int32(i))
	}
	for i := 0; i < n; i++ {
		cx, cy, cz := cellOf(i)
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dxc := -1; dxc <= 1; dxc++ {
					id := (mod(cz+dz, nc)*nc+mod(cy+dy, nc))*nc + mod(cx+dxc, nc)
					for _, j := range cells[id] {
						if int(j) <= i {
							continue
						}
						checks++
						dx := apps.MinImage(xi-x[3*j], l)
						dy2 := apps.MinImage(yi-x[3*j+1], l)
						dz2 := apps.MinImage(zi-x[3*j+2], l)
						if dx*dx+dy2*dy2+dz2*dz2 <= rc2 {
							pairs = append(pairs, [2]int32{int32(i), j})
						}
					}
				}
			}
		}
	}
	return pairs, checks
}

func clampCell(c, nc int) int {
	if c < 0 {
		return 0
	}
	if c >= nc {
		return nc - 1
	}
	return c
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// BuildPairsStrided computes the interaction pairs whose first molecule
// i satisfies i % mod == eq — the parallel rebuild decomposition: each
// processor scans an interleaved subset of the rows, which balances the
// triangular pair loop. The union over eq of the results equals
// BuildPairs' pair set (in a different order; force accumulation is
// exact, so results are unchanged).
func BuildPairsStrided(p *Params, l float64, x []float64, mod, eq int) (pairs [][2]int32, checks int64) {
	n := p.N
	rc2 := p.Cutoff * p.Cutoff
	for i := eq; i < n; i += mod {
		xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
		for j := i + 1; j < n; j++ {
			checks++
			dx := apps.MinImage(xi-x[3*j], l)
			dy := apps.MinImage(yi-x[3*j+1], l)
			dz := apps.MinImage(zi-x[3*j+2], l)
			if dx*dx+dy*dy+dz*dz <= rc2 {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return pairs, checks
}

// BucketPairsByOwner splits a pair list into per-owner buckets under the
// almost-owner-computes rule, preserving order within each bucket.
func BucketPairsByOwner(pairs [][2]int32, part *chaos.Partition) [][][2]int32 {
	out := make([][][2]int32, part.NProcs)
	for _, pr := range pairs {
		o := ownerOfPair(pr, part)
		out[o] = append(out[o], pr)
	}
	return out
}

// PartitionPairs orders the interaction list by the almost-owner-computes
// assignment (owner of the iteration's molecules under part), returning
// the reordered list and per-processor section boundaries starts, where
// processor p's pairs occupy [starts[p], starts[p+1]). The regular
// section of the indirection array each processor accesses — the
// compiler's key fact — is exactly that contiguous range.
func PartitionPairs(pairs [][2]int32, part *chaos.Partition) (sorted [][2]int32, starts []int) {
	nprocs := part.NProcs
	buckets := make([][][2]int32, nprocs)
	for _, pr := range pairs {
		o := ownerOfPair(pr, part)
		buckets[o] = append(buckets[o], pr)
	}
	starts = make([]int, nprocs+1)
	sorted = make([][2]int32, 0, len(pairs))
	for p := 0; p < nprocs; p++ {
		starts[p] = len(sorted)
		sorted = append(sorted, buckets[p]...)
	}
	starts[nprocs] = len(sorted)
	return sorted, starts
}

// ownerOfPair applies almost-owner-computes to one pair.
func ownerOfPair(pr [2]int32, part *chaos.Partition) int {
	// With two elements the majority rule reduces to: both owners equal
	// -> that owner; otherwise the first element's owner.
	return part.Owner[pr[0]]
}

// stepPositions integrates one molecule's coordinate: exact arithmetic
// followed by re-quantization and periodic wrap.
func integrate(x, f, drift, l float64) float64 {
	return apps.Wrap(apps.Q(x+apps.Dt*f+drift), l)
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
