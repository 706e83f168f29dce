package compiler

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func bindWorld(t *testing.T) (map[string]*core.Array, *tmk.DSM) {
	t.Helper()
	c := sim.NewCluster(sim.DefaultConfig(2))
	d := tmk.New(c, 1024, 1<<20)
	arrays := map[string]*core.Array{
		"x":        {Name: "x", Base: d.Alloc(8 * 100), ElemSize: 8, Len: 100},
		"partners": {Name: "partners", Base: d.Alloc(4 * 1000), ElemSize: 4, Len: 1000},
	}
	d.SealInit()
	return arrays, d
}

func TestBindResolvesSymbolsAndShiftsBase(t *testing.T) {
	arrays, _ := bindWorld(t)
	spec := &DescSpec{
		Data:  "x",
		Indir: "partners",
		Section: []DimSpec{{
			Lo: &lang.Ident{Name: "lo"}, Hi: &lang.Ident{Name: "hi"}, Stride: 1,
		}},
		Access: Read,
	}
	d, err := bind(spec, &BindEnv{
		Arrays: arrays, Dims: map[string][]int{},
		Env: Env{"lo": 1, "hi": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != core.Indirect || d.Indir != arrays["partners"] || d.Data != arrays["x"] {
		t.Fatalf("bound desc wrong: %+v", d)
	}
	// 1-based [1:10] becomes 0-based [0:9].
	if d.Section.Dims[0].Lo != 0 || d.Section.Dims[0].Hi != 9 {
		t.Fatalf("section = %v", d.Section)
	}
}

// TestMustBindNumbersIndirectDescriptors checks that every INDIRECT
// descriptor of the bundled kernels binds under a schedule number of its
// own, and every DIRECT one under none.
func TestMustBindNumbersIndirectDescriptors(t *testing.T) {
	seen := map[int]string{}
	for key, c := range bundled() {
		for i, spec := range c.sum.Descs {
			id := c.sched[i]
			switch {
			case !spec.Indirect() && id != 0:
				t.Errorf("%s: DIRECT %s numbered %d", key[1], spec, id)
			case spec.Indirect() && id == 0:
				t.Errorf("%s: INDIRECT %s not numbered", key[1], spec)
			case spec.Indirect() && seen[id] != "":
				t.Errorf("%s: INDIRECT %s shares number %d with %s", key[1], spec, id, seen[id])
			case spec.Indirect():
				seen[id] = key[1] + ": " + spec.String()
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no INDIRECT descriptor in the bundled kernels")
	}
}

func TestBindErrors(t *testing.T) {
	arrays, _ := bindWorld(t)
	one, two := &lang.Num{Value: 1}, &lang.Num{Value: 2}
	dim := func(lo, hi lang.Expr, stride int) DimSpec { return DimSpec{Lo: lo, Hi: hi, Stride: stride} }
	block := dim(&lang.Ident{Name: "mylo"}, &lang.Ident{Name: "myhi"}, 1)
	env := Env{"mylo": 5, "myhi": 9}
	grid := map[string][]int{"x": {3, 30}}
	for _, c := range []struct {
		name string
		spec *DescSpec
		dims map[string][]int
		err  string      // a substring of the error; "" binds
		want rsd.Section // the bound section when err is ""
	}{
		{name: "unknown data array", err: "not bound",
			spec: &DescSpec{Data: "nope", Section: []DimSpec{dim(one, two, 1)}}},
		{name: "unknown indirection array", err: `indirection array "ghost" not bound`,
			spec: &DescSpec{Data: "x", Indir: "ghost", Section: []DimSpec{dim(one, two, 1)}}},
		{name: "unbound symbol", err: "unbound",
			spec: &DescSpec{Data: "x", Section: []DimSpec{dim(&lang.Ident{Name: "mystery"}, two, 1)}}},
		// x[1:3, mylo:myhi] over x(3, 30) is the flat [3(mylo-1), 3*myhi-1].
		{name: "dense 2-D DIRECT", dims: grid, want: rsd.Range1(3*(5-1), 3*9-1),
			spec: &DescSpec{Data: "x", Section: []DimSpec{dim(one, &lang.Num{Value: 3}, 1), block}}},
		{name: "leading dimension not covered", dims: grid, err: "does not cover dimension 1",
			spec: &DescSpec{Data: "x", Section: []DimSpec{dim(one, two, 1), block}}},
		{name: "leading stride", dims: grid, err: "stride 2 in dimension 1",
			spec: &DescSpec{Data: "x", Section: []DimSpec{dim(one, &lang.Num{Value: 3}, 2), block}}},
		{name: "trailing stride", dims: grid, err: "stride 2 in dimension 2",
			spec: &DescSpec{Data: "x", Section: []DimSpec{dim(one, &lang.Num{Value: 3}, 1), dim(block.Lo, block.Hi, 2)}}},
		{name: "2-D DIRECT without sizes", err: "2 dimensions, 0 sizes",
			spec: &DescSpec{Data: "x", Section: []DimSpec{dim(one, &lang.Num{Value: 3}, 1), block}}},
	} {
		d, err := bind(c.spec, &BindEnv{Arrays: arrays, Dims: c.dims, Env: env})
		switch {
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err == "" && !d.Section.Equal(c.want):
			t.Errorf("%s: section %v, want %v", c.name, d.Section, c.want)
		}
	}
}

func TestBindDirectAccessTypes(t *testing.T) {
	arrays, _ := bindWorld(t)
	for spec, want := range map[Access]core.AccessType{
		Read: core.Read, Write: core.Write, ReadWrite: core.ReadWrite,
		WriteAll: core.WriteAll, ReadWriteAll: core.ReadWriteAll,
	} {
		d, err := bind(&DescSpec{Data: "x", Access: spec,
			Section: []DimSpec{{Lo: &lang.Num{Value: 1}, Hi: &lang.Num{Value: 50}, Stride: 1}}},
			&BindEnv{Arrays: arrays, Env: Env{}})
		if err != nil {
			t.Fatal(err)
		}
		if d.Access != want || d.Type != core.Direct {
			t.Fatalf("access %v bound to %v", spec, d.Access)
		}
	}
}

func TestAccessMergeTable(t *testing.T) {
	cases := []struct{ a, b, want Access }{
		{Read, Read, Read},
		{Read, Write, ReadWrite},
		{Write, Write, Write},
		{Read, WriteAll, ReadWriteAll},
		{WriteAll, WriteAll, WriteAll},
		{ReadWrite, WriteAll, ReadWriteAll},
		{Read, ReadWriteAll, ReadWriteAll},
	}
	for _, c := range cases {
		if got := c.a.merge(c.b); got != c.want {
			t.Errorf("%v merge %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.merge(c.a); got != c.want {
			t.Errorf("merge not commutative for %v,%v", c.a, c.b)
		}
	}
}

func TestDescSpecStrings(t *testing.T) {
	d := &DescSpec{Data: "x", Indir: "idx",
		Section: []DimSpec{{Lo: &lang.Num{Value: 1}, Hi: &lang.Ident{Name: "n"}, Stride: 1}},
		Access:  Read}
	s := d.String()
	if s != "INDIRECT, x, idx[1:n], READ" {
		t.Fatalf("string = %q", s)
	}
	direct := &DescSpec{Data: "y",
		Section: []DimSpec{{Lo: &lang.Num{Value: 2}, Hi: &lang.Num{Value: 8}, Stride: 2}},
		Access:  WriteAll}
	s = direct.String()
	if !strings.Contains(s, "DIRECT") || !strings.Contains(s, "2:8:2") || !strings.Contains(s, "WRITE_ALL") {
		t.Fatalf("string = %q", s)
	}
}
