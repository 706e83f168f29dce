package compiler

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// TestCompiledKernelDrivesRuntime closes the full loop of the paper: the
// kernel's emitted descriptors are bound to runtime arrays (MustBind, as
// the backends bind them), and the bound Validate call prefetches
// exactly what the loop needs — the loop runs fault-free.
func TestCompiledKernelDrivesRuntime(t *testing.T) {
	const n = 512
	const ppm = 100
	const nprocs = 4
	cl := sim.NewCluster(sim.DefaultConfig(nprocs))
	d := tmk.New(cl, 1024, 1<<22)
	arrays := map[string]*core.Array{
		"x":        {Name: "x", Base: d.Alloc(8 * n), ElemSize: 8, Len: n},
		"forces":   {Name: "forces", Base: d.Alloc(8 * n), ElemSize: 8, Len: n},
		"partners": {Name: "partners", Base: d.Alloc(4 * n * ppm), ElemSize: 4, Len: n * ppm},
	}
	s0 := d.Node(0).Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(arrays["x"].Addr(i), float64(i))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < ppm; k++ {
			s0.WriteI32(arrays["partners"].Addr(i*ppm+k), int32((i+1+k)%n))
		}
	}
	d.SealInit()

	cl.Run(func(p *sim.Proc) {
		me := p.ID()
		node := d.Node(me)
		space := node.Space()
		rt := core.NewRuntime(node)

		if me == 0 {
			// Dirty some x pages so remote validates have work to do.
			for i := 0; i < n; i += 16 {
				space.WriteF64(arrays["x"].Addr(i), float64(-i))
			}
		}
		node.Barrier(1)

		blk := n / nprocs
		mylo, myhi := me*blk+1, (me+1)*blk // 1-based bounds, like the source
		be := &BindEnv{
			Arrays: arrays,
			Dims:   map[string][]int{"partners": {ppm, n}},
			Env:    Env{"mylo": mylo, "myhi": myhi, "ppm": ppm},
		}
		rt.Validate(MustBind(NBFKernel, "forceloop", be)...)

		// The compiled loop must now run without a single fault.
		rf, wf := space.ReadFaults, space.WriteFaults
		sumv := 0.0
		for i := mylo - 1; i < myhi; i++ {
			xi := space.ReadF64(arrays["x"].Addr(i))
			for k := 0; k < ppm; k++ {
				j := int(space.ReadI32(arrays["partners"].Addr(i*ppm + k)))
				sumv += xi - space.ReadF64(arrays["x"].Addr(j))
			}
		}
		if space.ReadFaults != rf || space.WriteFaults != wf {
			t.Errorf("proc %d: compiled-descriptor loop faulted (+%d r, +%d w)",
				me, space.ReadFaults-rf, space.WriteFaults-wf)
		}
		node.Barrier(2)
	})
}
