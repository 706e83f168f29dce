package moldyn

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/lang"
)

// TestForceDescAgainstCompiledKernel is the compiler differential for
// moldyn's ComputeForces, and records its known layout mismatch
// (DESIGN.md §3). The kernel declares x(3, n): 8-byte reals, 3n of
// them. The interaction list's values are molecule numbers, so the
// optimized RunTmk lays x out as one 24-byte unit per molecule. Bound
// against that layout, the compiled descriptor equals the one RunTmk
// validates field for field; bound against the declared layout, it
// differs in the Data array's geometry alone.
func TestForceDescAgainstCompiledKernel(t *testing.T) {
	prog, err := lang.Parse(compiler.MoldynKernel)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := compiler.Analyze(prog, "computeforces")
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Descs) != 1 {
		t.Fatalf("want one descriptor, got %v", sum.Descs)
	}

	p := DefaultParams(128, 4)
	w := Generate(p)
	pairs, _ := BuildPairs(&w.P, w.L, w.X0)
	_, starts := PartitionPairs(pairs, chaos.RCB(Coords(w.X0), p.Procs))
	capPairs := len(pairs)*3/2 + 4096 // RunTmk's capacity rule
	xApp := &core.Array{Name: "x", ElemSize: 24, Len: p.N}
	xDeclared := &core.Array{Name: "x", ElemSize: 8, Len: 3 * p.N}
	inter := &core.Array{Name: "interaction_list", Base: 24 * 4096, ElemSize: 4, Len: 2 * capPairs}

	for me := 0; me < p.Procs; me++ {
		lo, hi := starts[me], starts[me+1]
		bind := func(x *core.Array) core.Desc {
			d, err := compiler.Bind(sum.Descs[0], &compiler.BindEnv{
				Arrays: map[string]*core.Array{"x": x, "interaction_list": inter},
				Dims:   map[string][]int{"interaction_list": {2, capPairs}},
				Env:    compiler.Env{"mylo": lo + 1, "myhi": hi},
				Sched:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		want := forceDesc(xApp, inter, lo, hi, capPairs)
		if got := bind(xApp); !reflect.DeepEqual(got, want) {
			t.Errorf("proc %d: compiled %+v, RunTmk %+v", me, got, want)
		}
		got := bind(xDeclared)
		if got.Data != xDeclared {
			t.Fatalf("proc %d: declared-layout binding used %+v", me, got.Data)
		}
		got.Data = xApp
		if !reflect.DeepEqual(got, want) {
			t.Errorf("proc %d: declared-layout binding differs beyond Data: %+v vs %+v", me, got, want)
		}
	}
}
