package apps

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/lang"
)

// TestReduceDescMatchesCompiledKernel is the compiler differential for
// the Figure 2 reduction: the ReductionKernel's firststage and
// laterstage descriptors, bound for every processor and pipeline stage,
// must equal field for field what PipelinedReduce passes to Validate.
// Width 3 is moldyn's force triples, where the kernel's forces(n) is the
// flat 3n-element array. The NoWriteAll ablation is the one deliberate
// divergence: it differs in Access alone (DESIGN.md §3).
func TestReduceDescMatchesCompiledKernel(t *testing.T) {
	prog, err := lang.Parse(compiler.ReductionKernel)
	if err != nil {
		t.Fatal(err)
	}
	var stages [2]*compiler.DescSpec
	for i, sub := range []string{"firststage", "laterstage"} {
		sum, err := compiler.Analyze(prog, sub)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Descs) != 1 {
			t.Fatalf("%s: want one descriptor, got %d", sub, len(sum.Descs))
		}
		stages[i] = sum.Descs[0]
	}

	const n, nprocs = 9, 4 // the last block is empty
	for _, width := range []int{1, 3} {
		arr := &core.Array{Name: "forces", ElemSize: 8, Len: width * n}
		for me := 0; me < nprocs; me++ {
			for s := 0; s < nprocs; s++ {
				blo, bhi := chaos.BlockRange(n, nprocs, (me+s)%nprocs)
				lo, hi := width*blo, width*bhi
				if lo == hi {
					continue // PipelinedReduce validates nothing for an empty block
				}
				spec := stages[min(s, 1)]
				got, err := compiler.Bind(spec, &compiler.BindEnv{
					Arrays: map[string]*core.Array{"forces": arr},
					Env:    compiler.Env{"blo": lo + 1, "bhi": hi},
					Sched:  2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := reduceDesc(arr, lo, hi, s, false); !reflect.DeepEqual(got, want) {
					t.Errorf("width %d proc %d stage %d: compiled %+v, PipelinedReduce %+v", width, me, s, got, want)
				}
				ablated := reduceDesc(arr, lo, hi, s, true)
				if ablated.Access != core.ReadWrite {
					t.Errorf("NoWriteAll stage %d: access %v, want READ&WRITE", s, ablated.Access)
				}
				ablated.Access = got.Access
				if !reflect.DeepEqual(got, ablated) {
					t.Errorf("NoWriteAll stage %d differs beyond Access: %+v vs %+v", s, ablated, got)
				}
			}
		}
	}
}
