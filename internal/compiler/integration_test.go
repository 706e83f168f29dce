package compiler

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
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

// TestTwoLevelChainDrivesRuntime exercises the multi-level extension end
// to end: the compiler's chained descriptor makes Validate follow
// inner -> outer -> data, and the loop runs fault-free.
func TestTwoLevelChainDrivesRuntime(t *testing.T) {
	prog, err := lang.Parse(TwoLevelKernel)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Analyze(prog, "walk")
	if err != nil {
		t.Fatal(err)
	}
	var chain *DescSpec
	for _, dsc := range sum.Descs {
		if dsc.Data == "data" {
			chain = dsc
		}
	}
	if chain == nil {
		t.Fatal("no chained descriptor")
	}

	const n = 2048
	const m = 256
	cl := sim.NewCluster(sim.DefaultConfig(2))
	d := tmk.New(cl, 1024, 1<<22)
	arrays := map[string]*core.Array{
		"data":  {Name: "data", Base: d.Alloc(8 * n), ElemSize: 8, Len: n},
		"outer": {Name: "outer", Base: d.Alloc(4 * n), ElemSize: 4, Len: n},
		"inner": {Name: "inner", Base: d.Alloc(4 * m), ElemSize: 4, Len: m},
	}
	s0 := d.Node(0).Space()
	for i := 0; i < n; i++ {
		s0.WriteF64(arrays["data"].Addr(i), float64(i))
		s0.WriteI32(arrays["outer"].Addr(i), int32((i*7)%n))
	}
	for i := 0; i < m; i++ {
		s0.WriteI32(arrays["inner"].Addr(i), int32((i*13)%n))
	}
	d.SealInit()

	cl.Run(func(p *sim.Proc) {
		me := p.ID()
		node := d.Node(me)
		space := node.Space()
		rt := core.NewRuntime(node)
		if me == 0 {
			for i := 0; i < n; i += 8 {
				space.WriteF64(arrays["data"].Addr(i), float64(10*i))
			}
		}
		node.Barrier(1)
		if me == 1 {
			be := &BindEnv{Arrays: arrays, Dims: map[string][]int{},
				Env: Env{"mylo": 1, "myhi": m}}
			bd, err := bind(chain, be)
			if err != nil {
				t.Errorf("bind: %v", err)
				return
			}
			rt.Validate(bd)
			rf := space.ReadFaults
			total := 0.0
			for i := 0; i < m; i++ {
				a := int(space.ReadI32(arrays["inner"].Addr(i)))
				b := int(space.ReadI32(arrays["outer"].Addr(a)))
				total += space.ReadF64(arrays["data"].Addr(b))
			}
			if space.ReadFaults != rf {
				t.Errorf("two-level loop faulted %d times after Validate", space.ReadFaults-rf)
			}
			if total == 0 {
				t.Error("suspicious zero sum")
			}
		}
		node.Barrier(2)
	})
}
