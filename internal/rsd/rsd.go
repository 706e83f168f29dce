// Package rsd implements regular section descriptors (RSDs), the
// compiler's concise representation of array accesses in a loop nest
// (Havlak & Kennedy's bounded regular section analysis, cited by the
// paper as its main analysis tool). An RSD gives, per array dimension, a
// lower bound, upper bound, and stride; the paper's compiler support
// consists of computing the RSD of the indirection-array section each
// processor traverses and handing it to Validate.
package rsd

import (
	"fmt"
	"strings"
)

// Dim is one dimension of a section: the inclusive Fortran-style range
// Lo:Hi:Stride.
type Dim struct {
	Lo, Hi, Stride int
}

// Count returns the number of indices the dimension covers.
func (d Dim) Count() int {
	if d.Stride <= 0 {
		panic("rsd: non-positive stride")
	}
	if d.Hi < d.Lo {
		return 0
	}
	return (d.Hi-d.Lo)/d.Stride + 1
}

// Section is an RSD: one Dim per array dimension, in Fortran
// (column-major, leftmost fastest) order.
type Section struct {
	Dims []Dim
}

// Range1 builds a one-dimensional dense section lo:hi.
func Range1(lo, hi int) Section {
	return Section{Dims: []Dim{{Lo: lo, Hi: hi, Stride: 1}}}
}

// Count returns the number of elements in the section.
func (s Section) Count() int {
	n := 1
	for _, d := range s.Dims {
		n *= d.Count()
	}
	return n
}

// Equal reports structural equality.
func (s Section) Equal(o Section) bool {
	if len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// String renders the section in Fortran triplet notation, e.g.
// "[1:2:1, 5:100:1]".
func (s Section) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		if d.Stride == 1 {
			parts[i] = fmt.Sprintf("%d:%d", d.Lo, d.Hi)
		} else {
			parts[i] = fmt.Sprintf("%d:%d:%d", d.Lo, d.Hi, d.Stride)
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// ForEachRun visits the section as runs of n contiguous elements
// starting at flat (column-major, zero-based) offset off within an array
// of the given dimension sizes — what a caller needs to learn which
// memory the section touches without expanding every element. A
// unit-stride leading dimension yields one run per setting of the other
// dimensions; any other stride yields single elements. The section must
// lie inside the array, which also makes the runs arrive in increasing
// offset order. ForEachRun allocates nothing.
func (s Section) ForEachRun(sizes []int, f func(off, n int)) {
	if len(sizes) != len(s.Dims) {
		panic("rsd: sizes arity mismatch")
	}
	empty := false
	for i, d := range s.Dims {
		c := d.Count()
		if c > 0 && (d.Lo < 0 || d.Lo+(c-1)*d.Stride >= sizes[i]) {
			panic(fmt.Sprintf("rsd: section %s outside array of sizes %v", s.String(), append([]int(nil), sizes...)))
		}
		empty = empty || c == 0
	}
	if len(s.Dims) == 0 || empty {
		return
	}
	lead, base, n := 0, 0, 1
	if d0 := s.Dims[0]; d0.Stride == 1 {
		lead, base, n = 1, d0.Lo, d0.Count()
	}
	s.walkRuns(sizes, len(s.Dims)-1, lead, base, n, f)
}

// walkRuns visits dimensions dim down to lead, outermost first, at flat
// offset base; below lead it emits the run of n elements at base.
func (s Section) walkRuns(sizes []int, dim, lead, base, n int, f func(off, n int)) {
	if dim < lead {
		f(base, n)
		return
	}
	stride := 1 // elements between consecutive indices of dimension dim
	for _, sz := range sizes[:dim] {
		stride *= sz
	}
	d := s.Dims[dim]
	for i := d.Lo; i <= d.Hi; i += d.Stride {
		s.walkRuns(sizes, dim-1, lead, base+i*stride, n, f)
	}
}
