// Package spmv implements a fourth irregular application beyond the
// paper's two: an iterative sparse matrix-vector product, y = A*x with A
// in CSR-like form whose column-index array is the indirection array.
// Each sweep computes the rows a processor owns and then refreshes the
// owned entries of the source vector x from y (a Jacobi-flavored
// relaxation), so processors must refetch the x values their columns
// name every step. The sparsity pattern is banded-random: mostly-local
// coupling with a few far columns per row, the structure of an
// unstructured-mesh matrix.
//
// Unlike moldyn and nbf there is no reduction phase — each row is
// owner-computed — so the communication is pure gather: CHAOS's
// inspector builds the ghost schedule once, and Validate's INDIRECT
// descriptor over the column-index section prefetches the same pages in
// one aggregated exchange per remote processor. The same four backends
// as the other apps are provided and verified bit-identical.
package spmv

import (
	"math/rand"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/sim"
)

// Costs is the compute-cost model (microseconds).
type Costs struct {
	MulAddUS        float64 // one nonzero multiply-accumulate (incl. the indirection)
	RefreshUSPerRow float64 // one x-entry relaxation update
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{MulAddUS: 0.15, RefreshUSPerRow: 0.10}
}

// Params configures an spmv experiment.
type Params struct {
	N         int // matrix dimension (rows == columns)
	NNZRow    int // nonzeros per row
	Steps     int // timed sweeps (one warmup sweep runs first)
	Procs     int
	Band      int // half-width of the near-diagonal band the local columns draw from
	FarPerRow int // far (uniformly random) columns per row
	Seed      int64
	PageSize  int
	TableKind chaos.TableKind
	// TableCachePages bounds the Paged table's per-processor cache
	// (0 = unbounded); set by the memory capacity policy.
	TableCachePages int
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine   apps.Machine
	Costs     Costs
	Inspector chaos.InspectorCost
}

// WorkTablePages estimates the translation-table pages one processor's
// column references touch: the whole table when any far columns exist
// (they are uniform over the matrix), otherwise the owned block plus
// the band on both sides — the localized shape that makes the Paged
// organization worthwhile under a budget.
func (p *Params) WorkTablePages() int {
	if p.FarPerRow > 0 {
		return (p.N + chaos.TablePageEntries - 1) / chaos.TablePageEntries
	}
	span := (p.N+p.Procs-1)/p.Procs + 2*p.Band
	if span > p.N {
		span = p.N
	}
	return (span + chaos.TablePageEntries - 1) / chaos.TablePageEntries
}

// defaultInspector is the calibrated CHAOS inspector cost model, shared
// by DefaultParams and Generate's zero-value fallback so the two cannot
// drift.
func defaultInspector() chaos.InspectorCost {
	return chaos.InspectorCost{HashUSPerEntry: 0.9, BuildUSPerElem: 0.3}
}

// DefaultParams returns the banded-random configuration of the former
// example: 24 nonzeros per row, 4 of them far, a ±128 band.
func DefaultParams(n, procs int) Params {
	return Params{
		N:         n,
		NNZRow:    24,
		Steps:     12,
		Procs:     procs,
		Band:      128,
		FarPerRow: 4,
		Seed:      7,
		PageSize:  4096,
		TableKind: chaos.Replicated,
		Costs:     DefaultCosts(),
		Inspector: defaultInspector(),
	}
}

// Workload is the generated input: the initial vector and the sparse
// matrix (concatenated per-row column indices and values, both of
// length N*NNZRow).
type Workload struct {
	P    Params
	X0   []float64
	Cols []int32
	Vals []float64
}

// Generate builds the workload deterministically from Params.Seed. Row
// i references NNZRow-FarPerRow columns within ±Band of i (periodic)
// plus FarPerRow uniformly random ones; values are quantized and scaled
// by 1/NNZRow so the relaxation stays bounded.
func Generate(p Params) *Workload {
	if p.Costs == (Costs{}) {
		p.Costs = DefaultCosts()
	}
	if p.Inspector == (chaos.InspectorCost{}) {
		p.Inspector = defaultInspector()
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.Band == 0 {
		p.Band = 128
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N
	x := make([]float64, n)
	cols := make([]int32, n*p.NNZRow)
	vals := make([]float64, n*p.NNZRow)
	for i := 0; i < n; i++ {
		x[i] = apps.Q(rng.Float64())
		for k := 0; k < p.NNZRow; k++ {
			var c int
			if k < p.NNZRow-p.FarPerRow {
				// Floored modulo: i-Band may be more than one n below
				// zero when the matrix is smaller than the band.
				c = (i + rng.Intn(2*p.Band+1) - p.Band) % n
				if c < 0 {
					c += n
				}
			} else {
				c = rng.Intn(n)
			}
			cols[i*p.NNZRow+k] = int32(c)
			vals[i*p.NNZRow+k] = apps.Q(rng.Float64() / float64(p.NNZRow))
		}
	}
	return &Workload{P: p, X0: x, Cols: cols, Vals: vals}
}

// rowProduct computes row i of y = A*x; every backend uses it so the
// per-row accumulation order (and hence the floating-point result) is
// identical everywhere. at resolves a global column index to its x
// value.
func rowProduct(w *Workload, i int, at func(c int) float64) float64 {
	acc := 0.0
	for k := 0; k < w.P.NNZRow; k++ {
		idx := i*w.P.NNZRow + k
		acc += w.Vals[idx] * at(int(w.Cols[idx]))
	}
	return acc
}

// refresh relaxes one x entry toward y (exact after re-quantization).
func refresh(x, y float64) float64 {
	return apps.Q(0.5*x + 0.5*y)
}

// RunSequential is the reference program.
func RunSequential(w *Workload) *apps.Result {
	p := w.P
	n := p.N
	x := append([]float64(nil), w.X0...)
	y := make([]float64, n)

	ep := apps.NewEpisode("seq", sim.DefaultConfig(1))
	proc := ep.Cluster.Proc(0)
	var t0 float64
	for step := 0; step <= p.Steps; step++ {
		if step == 1 {
			t0 = proc.Time() // warmup excluded
		}
		for i := 0; i < n; i++ {
			y[i] = rowProduct(w, i, func(c int) float64 { return x[c] })
		}
		proc.Advance(p.Costs.MulAddUS * float64(n*p.NNZRow))
		for i := 0; i < n; i++ {
			x[i] = refresh(x[i], y[i])
		}
		proc.Advance(p.Costs.RefreshUSPerRow * float64(n))
	}
	return ep.FinishSeq(t0, x, y)
}
