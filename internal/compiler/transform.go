// Source-to-source transformation (Figure 2): insert a Validate call at
// each fetch point, and runtime binding of the symbolic descriptors.
package compiler

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rsd"
)

// Transform analyzes the named subroutine and renders the transformed
// source: the original body with the compiler-generated Validate call
// inserted at the subroutine entry (the fetch point). It returns the
// listing and the summary.
func Transform(prog *lang.Program, subName string) (string, *Summary, error) {
	sum, err := Analyze(prog, subName)
	if err != nil {
		return "", nil, err
	}
	sub := prog.Sub(subName)
	var b strings.Builder
	fmt.Fprintf(&b, "SUBROUTINE %s()\n", sub.Name)
	if len(sum.Descs) > 0 {
		fmt.Fprintf(&b, "  Validate(%d", len(sum.Descs))
		for _, d := range sum.Descs {
			fmt.Fprintf(&b, ", %s", d)
		}
		fmt.Fprintf(&b, ")\n")
	}
	renderStmts(&b, sub.Body, 1)
	fmt.Fprintf(&b, "END\n")
	return b.String(), sum, nil
}

func renderStmts(b *strings.Builder, body []lang.Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, st := range body {
		switch s := st.(type) {
		case *lang.Do:
			fmt.Fprintf(b, "%s%s\n", ind, s.String())
			renderStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%senddo\n", ind)
		case *lang.If:
			fmt.Fprintf(b, "%sif (%s) then\n", ind, s.Cond)
			renderStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%sendif\n", ind)
		default:
			fmt.Fprintf(b, "%s%s\n", ind, st)
		}
	}
}

// Env supplies the runtime values of the symbols appearing in symbolic
// section bounds (processor-local loop bounds, array extents).
type Env map[string]int

// eval evaluates a bound expression under the environment.
func eval(e lang.Expr, env Env) (int, error) {
	switch x := e.(type) {
	case *lang.Num:
		return int(x.Value), nil
	case *lang.Ident:
		v, ok := env[x.Name]
		if !ok {
			return 0, fmt.Errorf("compiler: unbound symbol %q", x.Name)
		}
		return v, nil
	case *lang.BinOp:
		l, err := eval(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := eval(x.R, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("compiler: division by zero in bound")
			}
			return l / r, nil
		}
	}
	return 0, fmt.Errorf("compiler: cannot evaluate bound %s", e)
}

// BindEnv describes the runtime world a descriptor is bound into.
type BindEnv struct {
	// Arrays maps source array names to their shared-memory descriptors.
	Arrays map[string]*core.Array
	// Dims maps array names to their declared dimension sizes
	// (column-major), for linearizing multi-dimensional sections.
	Dims map[string][]int
	// Env supplies scalar symbol values. Source sections are 1-based
	// (Fortran); binding shifts them to 0-based.
	Env Env
}

// bind resolves a compiler-emitted descriptor into a runtime core.Desc
// with no schedule number (MustBind numbers it).
func bind(spec *DescSpec, be *BindEnv) (core.Desc, error) {
	dims := make([]rsd.Dim, len(spec.Section))
	for i, ds := range spec.Section {
		lo, err := eval(ds.Lo, be.Env)
		if err != nil {
			return core.Desc{}, err
		}
		hi, err := eval(ds.Hi, be.Env)
		if err != nil {
			return core.Desc{}, err
		}
		// 1-based source sections become 0-based runtime sections.
		dims[i] = rsd.Dim{Lo: lo - 1, Hi: hi - 1, Stride: ds.Stride}
	}
	data := be.Arrays[spec.Data]
	if data == nil {
		return core.Desc{}, fmt.Errorf("compiler: array %q not bound", spec.Data)
	}
	d := core.Desc{
		Data:    data,
		Section: rsd.Section{Dims: dims},
		Access:  bindAccess(spec.Access),
	}
	if spec.Indirect() {
		d.Type = core.Indirect
		d.Indir = be.Arrays[spec.Indir]
		if d.Indir == nil {
			return core.Desc{}, fmt.Errorf("compiler: indirection array %q not bound", spec.Indir)
		}
		if sizes := be.Dims[spec.Indir]; sizes != nil {
			d.IndirDims = sizes
		}
	} else {
		d.Type = core.Direct
		if len(dims) > 1 {
			sec, err := linearize(spec.Data, dims, be.Dims[spec.Data])
			if err != nil {
				return core.Desc{}, err
			}
			d.Section = sec
		}
	}
	return d, nil
}

// linearize turns a multi-dimensional DIRECT section over an array of
// the given column-major sizes into the one-dimensional range of the
// same elements, the only DIRECT shape Validate takes. The section must
// be dense: every leading dimension covered whole, stride 1 throughout.
func linearize(name string, dims []rsd.Dim, sizes []int) (rsd.Section, error) {
	if len(sizes) != len(dims) {
		return rsd.Section{}, fmt.Errorf("compiler: DIRECT section of %q has %d dimensions, %d sizes bound", name, len(dims), len(sizes))
	}
	unit := 1
	for i, dim := range dims {
		if dim.Stride != 1 {
			return rsd.Section{}, fmt.Errorf("compiler: DIRECT section of %q has stride %d in dimension %d", name, dim.Stride, i+1)
		}
		if i < len(dims)-1 {
			if dim.Lo != 0 || dim.Hi != sizes[i]-1 {
				return rsd.Section{}, fmt.Errorf("compiler: DIRECT section of %q does not cover dimension %d", name, i+1)
			}
			unit *= sizes[i]
		}
	}
	last := dims[len(dims)-1]
	return rsd.Range1(unit*last.Lo, unit*(last.Hi+1)-1), nil
}

func bindAccess(a Access) core.AccessType {
	switch a {
	case Read:
		return core.Read
	case Write:
		return core.Write
	case ReadWrite:
		return core.ReadWrite
	case WriteAll:
		return core.WriteAll
	case ReadWriteAll:
		return core.ReadWriteAll
	}
	panic("compiler: bad access")
}
