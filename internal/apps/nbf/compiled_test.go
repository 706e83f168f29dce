package nbf

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/lang"
)

// TestForceDescMatchesCompiledKernel is the compiler differential for
// nbf: the NBFKernel forceloop (whose partner count is fixed at 100)
// bound for every processor must yield the INDIRECT descriptor the
// optimized RunTmk validates, field for field. The loop's direct read of
// x(i) also earns a DIRECT READ descriptor that RunTmk does not pass to
// Validate — the recorded mismatch of DESIGN.md §3.
func TestForceDescMatchesCompiledKernel(t *testing.T) {
	prog, err := lang.Parse(compiler.NBFKernel)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := compiler.Analyze(prog, "forceloop")
	if err != nil {
		t.Fatal(err)
	}
	var indirect, direct *compiler.DescSpec
	for _, d := range sum.Descs {
		if d.Indirect() {
			indirect = d
		} else {
			direct = d
		}
	}
	if len(sum.Descs) != 2 || indirect == nil || direct == nil {
		t.Fatalf("want one INDIRECT and one DIRECT descriptor, got %v", sum.Descs)
	}
	if direct.Data != "x" || direct.Access != compiler.Read {
		t.Fatalf("direct descriptor is %s, want the READ of x(mylo:myhi)", direct)
	}

	const n, nprocs, partners = 300, 4, 100
	xArr := &core.Array{Name: "x", ElemSize: 8, Len: n}
	partArr := &core.Array{Name: "partners", Base: 8 * n, ElemSize: 4, Len: n * partners}
	for me := 0; me < nprocs; me++ {
		mlo, mhi := chaos.BlockRange(n, nprocs, me)
		got, err := compiler.Bind(indirect, &compiler.BindEnv{
			Arrays: map[string]*core.Array{"x": xArr, "partners": partArr},
			Env:    compiler.Env{"mylo": mlo + 1, "myhi": mhi},
			Sched:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := forceDesc(xArr, partArr, mlo, mhi, partners); !reflect.DeepEqual(got, want) {
			t.Errorf("proc %d: compiled %+v, RunTmk %+v", me, got, want)
		}
	}
}
