// Package tsp implements the canonical lock-based DSM workload from the
// TreadMarks literature: branch-and-bound traveling salesman. A pool of
// seed tasks (all tour prefixes of a fixed depth) is consumed from a
// shared work queue, and a global best-tour bound prunes the search;
// both queue and bound are lock-protected in the DSM variants, making
// this the first shipped app to exercise the TreadMarks lock path and
// the deterministic arbiter (DESIGN.md §7–§8) outside unit tests.
//
// Unlike the barrier apps (moldyn/nbf/unstruct/spmv) the work here is
// input-dependent and migratory: whoever pops a task explores it, and
// the pruning bound each worker sees depends on the lock-grant history.
// The arbiter makes that history — and with it every node count, wait
// time, and simulated time — bit-identical run to run. Across variants
// the *final state* is identical by construction: branch and bound
// always finds the optimum, every variant prunes only strictly-worse
// subtrees, and ties between equal-cost optima are broken toward the
// lexicographically smallest tour, so all four backends report the same
// unique tour, asserted with == by the harness.
//
// Distances are small random integers (exact in float64 and int64), so
// no floating-point concern touches the result.
package tsp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/sim"
)

// noBest is the bound sentinel before any tour is complete.
const noBest = math.MaxInt64

// Costs is the compute-cost model (microseconds).
type Costs struct {
	NodeUS float64 // expanding one search-tree node
}

// DefaultCosts returns the calibrated model. A search-tree node is one
// partial-tour extension: a distance add, a bound compare, and the
// loop bookkeeping — a few dozen late-90s RISC instructions.
func DefaultCosts() Costs {
	return Costs{NodeUS: 2.0}
}

// Params configures a TSP experiment.
type Params struct {
	N         int // cities (the search tree is factorial in N; keep it <= MaxCities)
	SeedDepth int // prefix depth of the seed tasks in the shared queue
	Batch     int // tasks claimed per queue-lock acquire by the batched TMK variant
	Procs     int
	Seed      int64
	PageSize  int
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine apps.Machine
	Costs   Costs
}

// MaxCities bounds the problem size: the tree is factorial in N and the
// simulator expands it node by node.
const MaxCities = 16

// DefaultParams returns the standard configuration: depth-3 seed tasks
// (with N=12 that is 110 tasks, enough to keep 8 processors contending
// for the queue) and a batch of 4 for the batched variant.
func DefaultParams(n, procs int) Params {
	return Params{
		N:         n,
		SeedDepth: 3,
		Batch:     4,
		Procs:     procs,
		Seed:      11,
		PageSize:  4096,
		Costs:     DefaultCosts(),
	}
}

// Workload is the generated input: a symmetric integer distance matrix
// and the seed-task pool every variant consumes in the same order.
type Workload struct {
	P       Params
	Dist    []int64 // row-major N x N, symmetric, zero diagonal
	MinEdge int64   // least off-diagonal distance (the optimistic bound)
	Tasks   []Task  // lexicographic tour prefixes of length SeedDepth
}

// Task is one unit of work: a tour prefix starting at city 0 and its
// accumulated cost.
type Task struct {
	Prefix []int32
	Cost   int64
}

// Generate builds the workload deterministically from Params.Seed.
func Generate(p Params) *Workload {
	if p.N < 3 {
		panic(fmt.Sprintf("tsp: need at least 3 cities, got %d", p.N))
	}
	if p.N > MaxCities {
		panic(fmt.Sprintf("tsp: %d cities exceeds MaxCities=%d (factorial search tree)", p.N, MaxCities))
	}
	if p.SeedDepth < 1 {
		p.SeedDepth = 1
	}
	if p.SeedDepth > p.N {
		p.SeedDepth = p.N
	}
	if p.Batch < 1 {
		p.Batch = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.N
	w := &Workload{P: p, Dist: make([]int64, n*n), MinEdge: noBest}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := int64(1 + rng.Intn(99))
			w.Dist[i*n+j] = d
			w.Dist[j*n+i] = d
			if d < w.MinEdge {
				w.MinEdge = d
			}
		}
	}
	w.Tasks = w.genTasks()
	return w
}

// D returns the distance between cities i and j.
func (w *Workload) D(i, j int32) int64 { return w.Dist[int(i)*w.P.N+int(j)] }

// genTasks enumerates every tour prefix of length SeedDepth starting at
// city 0, in lexicographic order — the canonical queue layout all
// variants share. No pruning happens here, so the pool is
// variant-independent.
func (w *Workload) genTasks() []Task {
	var out []Task
	prefix := []int32{0}
	used := make([]bool, w.P.N)
	used[0] = true
	var rec func(cost int64)
	rec = func(cost int64) {
		if len(prefix) == w.P.SeedDepth {
			out = append(out, Task{Prefix: append([]int32(nil), prefix...), Cost: cost})
			return
		}
		last := prefix[len(prefix)-1]
		for c := int32(1); c < int32(w.P.N); c++ {
			if used[c] {
				continue
			}
			used[c] = true
			prefix = append(prefix, c)
			rec(cost + w.D(last, c))
			prefix = prefix[:len(prefix)-1]
			used[c] = false
		}
	}
	rec(0)
	return out
}

// lexLess reports whether tour a precedes tour b lexicographically (the
// tie-break that makes the optimal tour unique across variants).
func lexLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Better reports whether (aCost, aTour) strictly improves on
// (bCost, bTour) under the (cost, lexicographic) order. A nil bTour is
// the "no tour yet" state and is improved upon by anything.
func Better(aCost int64, aTour []int32, bCost int64, bTour []int32) bool {
	if aTour == nil {
		return false
	}
	if bTour == nil {
		return true
	}
	if aCost != bCost {
		return aCost < bCost
	}
	return lexLess(aTour, bTour)
}

// searcher is one worker's branch-and-bound state: the best complete
// tour it knows (its own finds merged with the global bound it has
// observed) and the count of expanded tree nodes (the compute charge).
type searcher struct {
	w        *Workload
	bestCost int64
	bestTour []int32
	nodes    int64
}

func newSearcher(w *Workload) *searcher {
	return &searcher{w: w, bestCost: noBest}
}

// adopt merges an external (cost, tour) into the searcher's best.
func (s *searcher) adopt(cost int64, tour []int32) {
	if Better(cost, tour, s.bestCost, s.bestTour) {
		s.bestCost = cost
		s.bestTour = append([]int32(nil), tour...)
	}
}

// exploreTask runs the depth-first search below one seed task and
// returns the number of nodes expanded (for the compute charge). The
// tour has room for every city, so the search extends it in place and
// siblings overwrite the same slot: the task allocates the tour and
// used, however large its subtree.
func (s *searcher) exploreTask(t Task) int64 {
	before := s.nodes
	tour := append(make([]int32, 0, s.w.P.N), t.Prefix...)
	used := make([]bool, s.w.P.N)
	for _, c := range tour {
		used[c] = true
	}
	s.dfs(tour, used, t.Cost)
	return s.nodes - before
}

// dfs expands one node. The prune threshold is strict (>): a subtree is
// cut only when every completion is strictly worse than the bound, so
// equal-cost optima are always reached and the lexicographic tie-break
// sees all of them — the invariant that makes the final tour
// variant-independent.
func (s *searcher) dfs(tour []int32, used []bool, cost int64) {
	s.nodes++
	n := s.w.P.N
	depth := len(tour)
	// hopsLeft counts the edges still to be added, the return edge
	// included; each costs at least MinEdge.
	hopsLeft := int64(n - depth + 1)
	if s.bestCost != noBest && cost+hopsLeft*s.w.MinEdge > s.bestCost {
		return
	}
	if depth == n {
		total := cost + s.w.D(tour[n-1], 0)
		s.adopt(total, tour)
		return
	}
	last := tour[depth-1]
	for c := int32(1); c < int32(n); c++ {
		if used[c] {
			continue
		}
		used[c] = true
		s.dfs(append(tour, c), used, cost+s.w.D(last, c))
		used[c] = false
	}
}

// resultOf stores a final (cost, tour) as the common Result state: X
// is the tour (city ids, exact small integers) and Forces the
// single-element cost, so apps.VerifyEqual asserts the optimum with ==.
func resultOf(r *apps.Result, cost int64, tour []int32) *apps.Result {
	r.Forces = []float64{float64(cost)}
	r.X = make([]float64, len(tour))
	for i, c := range tour {
		r.X[i] = float64(c)
	}
	return r
}

// RunSequential is the reference program: one processor consumes the
// task pool in queue order with the same searcher the parallel variants
// use.
func RunSequential(w *Workload) *apps.Result {
	ep := apps.NewEpisode("seq", sim.DefaultConfig(1))
	proc := ep.Cluster.Proc(0)
	s := newSearcher(w)
	t0 := proc.Time()
	for _, t := range w.Tasks {
		nodes := s.exploreTask(t)
		proc.Advance(w.P.Costs.NodeUS * float64(nodes))
	}
	res := resultOf(ep.Res, s.bestCost, s.bestTour)
	ep.FinishSeq(t0, res.X, res.Forces)
	res.AddDetail("nodes", float64(s.nodes))
	return res
}
