// Package unstruct implements a third irregular application beyond the
// paper's two: an unstructured-mesh edge sweep in the style of the
// "unstructured" benchmark used by the comparison study the paper cites
// (Mukherjee et al., PPoPP 1995). A static random-geometric mesh
// connects nodes within a radius; each step sweeps the edge list (the
// indirection array), computing a flux from the two endpoint values and
// accumulating it into both endpoints, then relaxes the node values.
//
// Unlike moldyn, the edge list never changes (the inspector runs once);
// unlike nbf, the degree is irregular (RCB partitioning and
// almost-owner-computes load balancing matter). The same four backends
// are provided and verified bit-identical.
package unstruct

import (
	"math/rand"
	"slices"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// Costs is the compute-cost model (microseconds).
type Costs struct {
	EdgeUS          float64 // one edge flux evaluation
	RelaxUSPerNode  float64
	ZeroUSPerElem   float64
	ReduceUSPerElem float64
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{EdgeUS: 0.5, RelaxUSPerNode: 0.12, ZeroUSPerElem: 0.004, ReduceUSPerElem: 0.01}
}

// Params configures an unstructured-mesh experiment.
type Params struct {
	Nodes    int
	Radius   float64 // connection radius in a unit-density box
	Steps    int     // timed steps (one warmup step runs first)
	Procs    int
	Seed     int64
	PageSize int
	// Machine carries the latency/bandwidth overrides the scenario
	// engine sweeps (zero fields = SP2 default).
	Machine   apps.Machine
	Costs     Costs
	Inspector chaos.InspectorCost
}

// DefaultParams returns a balanced configuration.
func DefaultParams(nodes, procs int) Params {
	return Params{
		Nodes:     nodes,
		Radius:    2.2,
		Steps:     10,
		Procs:     procs,
		Seed:      42,
		PageSize:  4096,
		Costs:     DefaultCosts(),
		Inspector: chaos.InspectorCost{HashUSPerEntry: 0.8, BuildUSPerElem: 0.3},
	}
}

// Workload is the generated mesh.
type Workload struct {
	P      Params
	L      float64 // box side
	Coords [][3]float64
	X0     []float64  // initial node values (quantized)
	Drift  []float64  // per-node per-step drift
	Edges  [][2]int32 // static edge list (a < b)
}

// Generate builds a random geometric mesh with unit density.
func Generate(p Params) *Workload {
	if p.Costs == (Costs{}) {
		p.Costs = DefaultCosts()
	}
	if p.Inspector == (chaos.InspectorCost{}) {
		p.Inspector = chaos.InspectorCost{HashUSPerEntry: 0.8, BuildUSPerElem: 0.3}
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	rng := rand.New(rand.NewSource(p.Seed))
	l := apps.Q(cube(float64(p.Nodes)))
	coords := make([][3]float64, p.Nodes)
	x := make([]float64, p.Nodes)
	drift := make([]float64, p.Nodes)
	for i := range coords {
		coords[i] = [3]float64{rng.Float64() * l, rng.Float64() * l, rng.Float64() * l}
		x[i] = apps.Q(rng.Float64() * 16)
		drift[i] = apps.Q((rng.Float64() - 0.5) * 0.03)
	}
	// Edges: cell-grid neighbor search, deterministic order, a < b.
	var edges [][2]int32
	nc := int(l / p.Radius)
	if nc < 1 {
		nc = 1
	}
	cells := make([][]int32, nc*nc*nc)
	cellOf := func(i int) (int, int, int) {
		f := func(v float64) int {
			c := int(v / l * float64(nc))
			if c < 0 {
				c = 0
			}
			if c >= nc {
				c = nc - 1
			}
			return c
		}
		return f(coords[i][0]), f(coords[i][1]), f(coords[i][2])
	}
	for i := 0; i < p.Nodes; i++ {
		cx, cy, cz := cellOf(i)
		cells[(cz*nc+cy)*nc+cx] = append(cells[(cz*nc+cy)*nc+cx], int32(i))
	}
	r2 := p.Radius * p.Radius
	for i := 0; i < p.Nodes; i++ {
		cx, cy, cz := cellOf(i)
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					zx, zy, zz := cz+dz, cy+dy, cx+dx
					if zx < 0 || zx >= nc || zy < 0 || zy >= nc || zz < 0 || zz >= nc {
						continue
					}
					for _, j := range cells[(zx*nc+zy)*nc+zz] {
						if int(j) <= i {
							continue
						}
						ddx := coords[i][0] - coords[j][0]
						ddy := coords[i][1] - coords[j][1]
						ddz := coords[i][2] - coords[j][2]
						if ddx*ddx+ddy*ddy+ddz*ddz <= r2 {
							edges = append(edges, [2]int32{int32(i), j})
						}
					}
				}
			}
		}
	}
	return &Workload{P: p, L: l, Coords: coords, X0: x, Drift: drift, Edges: edges}
}

func cube(v float64) float64 {
	s := v
	for i := 0; i < 64; i++ {
		s = (2*s + v/(s*s)) / 3
	}
	return s
}

// flux is the edge interaction (exact on the value lattice).
func flux(xa, xb float64) float64 { return xa - xb }

// relax advances one node value.
func relax(x, y, drift float64) float64 {
	return apps.Q(x + apps.Dt*y + drift)
}

// partitionEdges orders the edges by owner (RCB on coordinates,
// almost-owner-computes per edge) and returns per-processor boundaries.
func partitionEdges(w *Workload, part *chaos.Partition) (sorted [][2]int32, starts []int) {
	// A stable counting sort on the owner: count, prefix-sum, place.
	starts = make([]int, part.NProcs+1)
	for _, e := range w.Edges {
		starts[part.Owner[e[0]]+1]++
	}
	for p := 0; p < part.NProcs; p++ {
		starts[p+1] += starts[p]
	}
	sorted = make([][2]int32, len(w.Edges))
	next := slices.Clone(starts[:part.NProcs])
	for _, e := range w.Edges {
		o := part.Owner[e[0]]
		sorted[next[o]] = e
		next[o]++
	}
	return
}

// RunSequential is the reference program.
func RunSequential(w *Workload) *apps.Result {
	p := w.P
	ep := apps.NewEpisode("seq", sim.DefaultConfig(1))
	proc := ep.Cluster.Proc(0)
	x := append([]float64(nil), w.X0...)
	y := make([]float64, p.Nodes)
	var t0 float64
	for step := 0; step <= p.Steps; step++ {
		if step == 1 {
			t0 = proc.Time()
		}
		for i := range y {
			y[i] = 0
		}
		proc.Advance(p.Costs.ZeroUSPerElem * float64(p.Nodes))
		for _, e := range w.Edges {
			f := flux(x[e[0]], x[e[1]])
			y[e[0]] += f
			y[e[1]] -= f
		}
		proc.Advance(p.Costs.EdgeUS * float64(len(w.Edges)))
		for i := 0; i < p.Nodes; i++ {
			x[i] = relax(x[i], y[i], w.Drift[i])
		}
		proc.Advance(p.Costs.RelaxUSPerNode * float64(p.Nodes))
	}
	return ep.FinishSeq(t0, x, y)
}

// TmkOptions selects the TreadMarks variant.
type TmkOptions struct {
	Optimized bool
}

const (
	barPipeline = iota + 1
	barRelax
)

// RunTmk executes the mesh sweep on the TreadMarks DSM.
func RunTmk(w *Workload, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.Nodes
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.Machine.Config(nprocs))
	cl := ep.Cluster
	arenaBytes := apps.PageRound(8*n, p.PageSize)*2 + apps.PageRound(8*len(w.Edges), p.PageSize) + 4*p.PageSize
	d := tmk.New(cl, p.PageSize, arenaBytes)
	xArr := &core.Array{Name: "x", Base: d.Alloc(8 * n), ElemSize: 8, Len: n}
	yArr := &core.Array{Name: "y", Base: d.Alloc(8 * n), ElemSize: 8, Len: n}
	eArr := &core.Array{Name: "edges", Base: d.Alloc(8 * len(w.Edges)), ElemSize: 4, Len: 2 * len(w.Edges)}

	part := chaos.RCB(w.Coords, nprocs)
	sorted, starts := partitionEdges(w, part)
	s0 := d.Node(0).Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(xArr.Addr(i), w.X0[i])
		s0.WriteF64(yArr.Addr(i), 0)
	}
	for k, e := range sorted {
		s0.WriteI32(eArr.Addr(2*k), e[0])
		s0.WriteI32(eArr.Addr(2*k+1), e[1])
	}
	d.SealInit()

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		var rt *core.Runtime
		if opt.Optimized {
			rt = core.NewRuntime(node)
		}
		ly := make([]float64, n)
		lo, hi := starts[me], starts[me+1]
		mlo, mhi := chaos.BlockRange(n, nprocs, me)

		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Meas.Start(proc)
			}
			if opt.Optimized && lo < hi {
				rt.Validate(core.Desc{
					Type: core.Indirect, Data: xArr, Indir: eArr,
					Section:   rsd.New(rsd.Dim{Lo: 0, Hi: 1, Stride: 1}, rsd.Dim{Lo: lo, Hi: hi - 1, Stride: 1}),
					IndirDims: []int{2, len(w.Edges)},
					Access:    core.Read, Sched: 1,
				})
			}
			for i := range ly {
				ly[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(n))
			for k := lo; k < hi; k++ {
				a := int(space.ReadI32(eArr.Addr(2 * k)))
				b := int(space.ReadI32(eArr.Addr(2*k + 1)))
				f := flux(space.ReadF64(xArr.Addr(a)), space.ReadF64(xArr.Addr(b)))
				ly[a] += f
				ly[b] -= f
			}
			proc.Advance(cost.EdgeUS * float64(hi-lo))

			apps.PipelinedReduce(proc, node, rt, yArr, ly, 1, barPipeline, false, cost.ReduceUSPerElem)

			if mlo < mhi {
				if opt.Optimized {
					rt.Validate(
						core.Desc{Type: core.Direct, Data: yArr,
							Section: rsd.Range1(mlo, mhi-1), Access: core.Read, Sched: 3},
						core.Desc{Type: core.Direct, Data: xArr,
							Section: rsd.Range1(mlo, mhi-1), Access: core.ReadWriteAll, Sched: 4},
					)
				}
				for i := mlo; i < mhi; i++ {
					space.WriteF64(xArr.Addr(i),
						relax(space.ReadF64(xArr.Addr(i)), space.ReadF64(yArr.Addr(i)), w.Drift[i]))
				}
				proc.Advance(cost.RelaxUSPerNode * float64(mhi-mlo))
			}
			node.Barrier(barRelax)
		}
		ep.Meas.End(proc)
	})

	// unstruct reports no traffic detail and no scan_s, unlike the other
	// barrier apps; the benchmark's result fingerprints pin that gap.
	ep.Finish()
	ep.CollectShared(d, xArr, yArr, n)
	d.Close()
	return ep.Res
}

// RunChaos executes the mesh sweep with the inspector-executor library.
func RunChaos(w *Workload) *apps.Result {
	p := w.P
	nprocs := p.Procs
	cost := p.Costs
	ecost := chaos.DefaultExecutorCost()

	ep := apps.NewEpisode("chaos", p.Machine.Config(nprocs))
	ep.Res.TableOrg = chaos.Replicated.String()
	cl := ep.Cluster
	part := chaos.RCB(w.Coords, nprocs)
	tt := chaos.NewTransTable(part, chaos.Replicated)
	counts := part.Counts()
	sorted, starts := partitionEdges(w, part)

	ownGlobals := part.Owned()

	inspectorSec := ep.PerProc("inspector_s")
	xs, ys := make([][]float64, nprocs), make([][]float64, nprocs)

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		own := counts[me]
		edges := sorted[starts[me]:starts[me+1]]

		t0 := proc.Clock()
		globals := make([]int, 0, 2*len(edges))
		for _, e := range edges {
			globals = append(globals, int(e[0]), int(e[1]))
		}
		sch := chaos.Inspect(proc, 0, globals, tt, p.Inspector)
		inspectorSec[me] = (proc.Clock() - t0) / 1e6

		slots := own + sch.Ghosts
		cl.Mem.Alloc(me, apps.MemCatData, int64(2*8*slots)) // xLoc + yLoc
		xLoc := make([]float64, slots)
		yLoc := make([]float64, slots)
		for _, g := range ownGlobals[me] {
			xLoc[sch.LocalOf(g)] = w.X0[g]
		}

		tag := 0
		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Meas.Start(proc)
			}
			tag++
			chaos.Gather(proc, tag, sch, xLoc, 1, ecost)
			for i := range yLoc {
				yLoc[i] = 0
			}
			proc.Advance(cost.ZeroUSPerElem * float64(slots))
			for _, e := range edges {
				la, lb := sch.LocalOf(int(e[0])), sch.LocalOf(int(e[1]))
				f := flux(xLoc[la], xLoc[lb])
				yLoc[la] += f
				yLoc[lb] -= f
			}
			proc.Advance(cost.EdgeUS * float64(len(edges)))
			tag++
			chaos.ScatterAdd(proc, tag, sch, yLoc, 1, ecost)
			for _, g := range ownGlobals[me] {
				li := sch.LocalOf(g)
				xLoc[li] = relax(xLoc[li], yLoc[li], w.Drift[g])
			}
			proc.Advance(cost.RelaxUSPerNode * float64(own))
		}
		ep.Meas.End(proc)
		xs[me], ys[me] = xLoc[:own], yLoc[:own]
		cl.Mem.Free(me, apps.MemCatData, int64(2*8*slots))
		sch.ReleaseMem(proc)
	})
	tt.ReleaseMem(cl)

	ep.Finish() // no traffic detail (see RunTmk)
	apps.Assemble(ep.Res, ownGlobals, 1, xs, ys)
	return ep.Res
}
