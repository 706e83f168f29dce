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

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
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

// Workload is the generated mesh and the partition every parallel
// backend shares, computed once by Generate and only read after it.
type Workload struct {
	P      Params
	L      float64 // box side
	Coords [][3]float64
	X0     []float64 // initial node values (quantized)
	Drift  []float64 // per-node per-step drift

	Part   *chaos.Partition // RCB partition of Coords over P.Procs
	Sorted [][2]int32       // static edge list (a < b) by owner under Part (chaos.PartitionPairs)
	Starts []int            // processor p's edges are Sorted[Starts[p]:Starts[p+1]]
}

// Generate builds a random geometric mesh with unit density.
func Generate(p Params) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	l := apps.Q(apps.CubeRoot(float64(p.Nodes)))
	coords := make([][3]float64, p.Nodes)
	x := make([]float64, p.Nodes)
	drift := make([]float64, p.Nodes)
	for i := range coords {
		coords[i] = [3]float64{rng.Float64() * l, rng.Float64() * l, rng.Float64() * l}
		x[i] = apps.Q(rng.Float64() * 16)
		drift[i] = apps.Q((rng.Float64() - 0.5) * 0.03)
	}
	w := &Workload{P: p, L: l, Coords: coords, X0: x, Drift: drift}
	w.Part = chaos.RCB(coords, p.Procs)
	w.Sorted, w.Starts = chaos.PartitionPairs(buildEdges(coords, l, p.Radius), w.Part)
	return w
}

// buildEdges is the mesh's edge search: every node pair (a < b) within
// radius, found through a cell grid, in deterministic order.
func buildEdges(coords [][3]float64, l, radius float64) [][2]int32 {
	var edges apps.PairBuilder
	nc := int(l / radius)
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
	for i := range coords {
		cx, cy, cz := cellOf(i)
		cells[(cz*nc+cy)*nc+cx] = append(cells[(cz*nc+cy)*nc+cx], int32(i))
	}
	r2 := radius * radius
	for i := range coords {
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
							edges.Add(int32(i), j)
						}
					}
				}
			}
		}
	}
	return edges.Pairs()
}

// flux is the edge interaction (exact on the value lattice).
func flux(xa, xb float64) float64 { return xa - xb }

// relax advances one node value.
func relax(x, y, drift float64) float64 {
	return apps.Q(x + apps.Dt*y + drift)
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
		for _, e := range w.Sorted {
			f := flux(x[e[0]], x[e[1]])
			y[e[0]] += f
			y[e[1]] -= f
		}
		proc.Advance(p.Costs.EdgeUS * float64(len(w.Sorted)))
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

// Image is unstruct's initial TreadMarks image: x, y and the
// owner-sorted edge list laid out in one sealed arena, built once per
// workload and shared by both TreadMarks variants.
type Image struct {
	*tmk.Image
	xArr, yArr, eArr *core.Array
}

// BuildImage lays out unstruct's shared arrays and writes their initial
// values: x0, a zero y, and the edges in owner-sorted order.
func BuildImage(w *Workload) *Image {
	p := w.P
	n := p.Nodes
	arenaBytes := apps.PageRound(8*n, p.PageSize)*2 + apps.PageRound(8*len(w.Sorted), p.PageSize) + 4*p.PageSize
	img := tmk.NewImage(p.PageSize, arenaBytes)
	im := &Image{Image: img,
		xArr: &core.Array{Name: "x", Base: img.Alloc(8 * n), ElemSize: 8, Len: n},
		yArr: &core.Array{Name: "y", Base: img.Alloc(8 * n), ElemSize: 8, Len: n},
		eArr: &core.Array{Name: "edges", Base: img.Alloc(8 * len(w.Sorted)), ElemSize: 4, Len: 2 * len(w.Sorted)},
	}
	s0 := img.Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(im.xArr.Addr(i), w.X0[i])
		s0.WriteF64(im.yArr.Addr(i), 0)
	}
	for k, e := range w.Sorted {
		s0.WriteI32(im.eArr.Addr(2*k), e[0])
		s0.WriteI32(im.eArr.Addr(2*k+1), e[1])
	}
	img.Seal()
	return im
}

// RunTmk executes the mesh sweep on the TreadMarks DSM, starting from
// im. The optimized variant validates x through its edge section before
// the sweep, its block of y in each stage of the pipelined reduction,
// and its own nodes before the relaxation: every descriptor is bound
// from the compiled UnstructKernel and ReductionKernel.
func RunTmk(w *Workload, im *Image, opt TmkOptions) *apps.Result {
	p := w.P
	nprocs := p.Procs
	n := p.Nodes
	cost := p.Costs

	ep := apps.NewEpisode(apps.TmkSystem(opt.Optimized), p.Machine.Config(nprocs))
	cl := ep.Cluster
	d := tmk.NewFromImage(cl, im.Image)
	xArr, yArr, eArr := im.xArr, im.yArr, im.eArr

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		node := d.Node(me)
		space := node.Space()
		ly := make([]float64, n)
		lo, hi := w.Starts[me], w.Starts[me+1]
		mlo, mhi := chaos.BlockRange(n, nprocs, me)
		var rt *core.Runtime
		var edgeDescs, relaxDescs, stages []core.Desc
		if opt.Optimized {
			rt = core.NewRuntime(node)
			be := &compiler.BindEnv{
				Arrays: map[string]*core.Array{"x": xArr, "y": yArr, "edges": eArr},
				Dims:   map[string][]int{"edges": {2, len(w.Sorted)}},
				Env:    compiler.Env{"elo": lo + 1, "ehi": hi, "mylo": mlo + 1, "myhi": mhi},
			}
			edgeDescs = compiler.MustBind(compiler.UnstructKernel, "edgeloop", be)
			relaxDescs = compiler.MustBind(compiler.UnstructKernel, "relax", be)
			stages = apps.ReduceStages(yArr, 1, me, nprocs, false)
		}

		for step := 0; step <= p.Steps; step++ {
			if step == 1 {
				ep.Start(proc)
			}
			if opt.Optimized && lo < hi {
				rt.Validate(edgeDescs...)
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

			apps.PipelinedReduce(proc, node, rt, stages, yArr, ly, 1, barPipeline, cost.ReduceUSPerElem)

			if mlo < mhi {
				if opt.Optimized {
					rt.Validate(relaxDescs...)
				}
				for i := mlo; i < mhi; i++ {
					space.WriteF64(xArr.Addr(i),
						relax(space.ReadF64(xArr.Addr(i)), space.ReadF64(yArr.Addr(i)), w.Drift[i]))
				}
				proc.Advance(cost.RelaxUSPerNode * float64(mhi-mlo))
			}
			node.Barrier(barRelax)
		}
		ep.End(proc)
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
	part := w.Part
	tt := chaos.NewTransTable(part, chaos.Replicated)
	counts := part.Counts()
	ownGlobals := part.Owned()

	inspectorSec := ep.PerProc("inspector_s")
	xs, ys := make([][]float64, nprocs), make([][]float64, nprocs)

	cl.Run(func(proc *sim.Proc) {
		me := proc.ID()
		own := counts[me]
		lo, hi := w.Starts[me], w.Starts[me+1]
		edges := w.Sorted[lo:hi:hi]

		t0 := proc.Clock()
		sch := chaos.InspectStream(proc, 0, apps.PairRefs(edges), tt, p.Inspector)
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
				ep.Start(proc)
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
		ep.End(proc)
		xs[me], ys[me] = xLoc[:own], yLoc[:own]
		cl.Mem.Free(me, apps.MemCatData, int64(2*8*slots))
		sch.ReleaseMem(proc)
	})
	tt.ReleaseMem(cl)

	ep.Finish() // no traffic detail (see RunTmk)
	apps.Assemble(ep.Res, ownGlobals, 1, xs, ys)
	return ep.Res
}
