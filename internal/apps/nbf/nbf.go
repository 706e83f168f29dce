// Package nbf implements the paper's second application (§5.2): the
// non-bonded force kernel from the GROMOS benchmark. Each molecule keeps
// a list of interacting partners; the per-molecule lists are
// concatenated into one partner array (the indirection array). For each
// molecule the program walks its partners and updates the forces on both
// the molecule and the partner. The partner list is static, each
// molecule has the same number of partners, and the partners spread
// evenly over about 2/3 of the index space — so a BLOCK partition
// balances the load. The test runs Steps+1 iterations and times the last
// Steps (the paper runs 11 and times 10), excluding the CHAOS inspector
// and the TreadMarks partner-array check from the timing.
package nbf

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Costs is the compute-cost model (microseconds).
type Costs struct {
	InteractionUS     float64 // one partner force evaluation
	IntegrateUSPerMol float64
	ZeroUSPerElem     float64
	ReduceUSPerElem   float64
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{
		InteractionUS:     0.18,
		IntegrateUSPerMol: 0.10,
		ZeroUSPerElem:     0.004,
		ReduceUSPerElem:   0.010,
	}
}

// Params configures an nbf experiment. The paper's problem sizes are
// N = 64x1024, 64x1000 (which misaligns the per-processor block with
// page boundaries and induces false sharing), and 32x1024.
type Params struct {
	N        int // number of molecules
	Partners int // partners per molecule (paper: 100)
	Steps    int // timed steps (one extra warmup step runs first)
	Procs    int
	Spread   float64 // fraction of the index space the partners span (paper: ~2/3)
	Seed     int64
	PageSize int
	// Table is the CHAOS translation-table organization and, for Paged,
	// its per-processor cache bound (0 = unbounded); set by the memory
	// capacity policy.
	Table mem.TablePlan
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine apps.Machine
	Costs   Costs
	// Inspector is the CHAOS inspector cost model (calibrated to the
	// paper's 7.3 s single-processor / 5.2 s 8-processor inspector).
	Inspector chaos.InspectorCost
}

// DefaultParams mirrors the paper's configuration.
func DefaultParams(n, procs int) Params {
	return Params{
		N:         n,
		Partners:  100,
		Steps:     10,
		Procs:     procs,
		Spread:    2.0 / 3.0,
		Seed:      1997,
		PageSize:  4096,
		Table:     mem.TablePlan{Kind: chaos.Replicated},
		Costs:     DefaultCosts(),
		Inspector: chaos.InspectorCost{HashUSPerEntry: 0.95, BuildUSPerElem: 0.3},
	}
}

// Workload is the generated input: initial values, per-molecule drift,
// and the concatenated partner list.
type Workload struct {
	P        Params
	L        float64 // value range (periodic)
	X0       []float64
	Drift    []float64
	Partners []int32 // N*Partners concatenated partner lists
}

// Generate builds the workload. Partner k of molecule i is
// (i + off_k) mod N with offsets evenly spread over Spread*N — matching
// the paper's "partners of each molecule spread evenly in about 2/3 of
// the total space".
func Generate(p Params) *Workload {
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N
	l := apps.Q(float64(n))
	x := make([]float64, n)
	drift := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = apps.Q(rng.Float64() * l)
		if x[i] >= l {
			x[i] = 0
		}
		drift[i] = apps.Q((rng.Float64() - 0.5) * 0.05)
	}
	partners := make([]int32, n*p.Partners)
	span := int(p.Spread * float64(n))
	for i := 0; i < n; i++ {
		for k := 0; k < p.Partners; k++ {
			off := 1 + k*span/p.Partners
			partners[i*p.Partners+k] = int32((i + off) % n)
		}
	}
	return &Workload{P: p, L: l, X0: x, Drift: drift, Partners: partners}
}

// force is the pair interaction (minimum-image separation; exact on the
// lattice).
func force(xi, xj, l float64) float64 {
	return apps.MinImage(xi-xj, l)
}

// RunSequential is the reference program.
func RunSequential(w *Workload) *apps.Result {
	p := w.P
	n := p.N
	x := append([]float64(nil), w.X0...)
	forces := make([]float64, n)

	ep := apps.NewEpisode("seq", sim.DefaultConfig(1))
	proc := ep.Cluster.Proc(0)
	var t0 float64
	for step := 0; step <= p.Steps; step++ {
		if step == 1 {
			t0 = proc.Time() // warmup excluded
		}
		for i := range forces {
			forces[i] = 0
		}
		proc.Advance(p.Costs.ZeroUSPerElem * float64(n))
		for i := 0; i < n; i++ {
			xi := x[i]
			for k := 0; k < p.Partners; k++ {
				j := int(w.Partners[i*p.Partners+k])
				f := force(xi, x[j], w.L)
				forces[i] += f
				forces[j] -= f
			}
		}
		proc.Advance(p.Costs.InteractionUS * float64(n*p.Partners))
		for i := 0; i < n; i++ {
			x[i] = apps.Integrate(x[i], forces[i], w.Drift[i], w.L)
		}
		proc.Advance(p.Costs.IntegrateUSPerMol * float64(n))
	}
	return ep.FinishSeq(t0, x, forces)
}
