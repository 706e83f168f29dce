package rsd

import (
	"testing"
	"testing/quick"
)

// linearOffsets returns the flat (column-major) element offsets the
// section covers within an array of the given dimension sizes, one per
// element: the expansion ForEachRun's runs are checked against.
func linearOffsets(s Section, sizes []int) []int {
	if len(sizes) != len(s.Dims) {
		panic("rsd: sizes arity mismatch")
	}
	out := make([]int, 0, s.Count())
	s.ForEach(func(idx []int) {
		off, stride := 0, 1
		for i, v := range idx {
			off += v * stride
			stride *= sizes[i]
		}
		out = append(out, off)
	})
	return out
}

func TestLinearOffsetsMatchesForEachProperty(t *testing.T) {
	// linearOffsets must enumerate exactly the column-major positions
	// ForEach visits.
	f := func(lo1, n1, lo2, n2, st uint8) bool {
		d1 := Dim{Lo: int(lo1 % 4), Hi: int(lo1%4) + int(n1%5), Stride: 1}
		d2 := Dim{Lo: int(lo2 % 6), Hi: int(lo2%6) + int(n2%6), Stride: int(st%2) + 1}
		s := New(d1, d2)
		sizes := []int{d1.Hi + 1, d2.Hi + 1}
		strideRow := sizes[0]
		var want []int
		s.ForEach(func(idx []int) {
			want = append(want, idx[0]+idx[1]*strideRow)
		})
		got := linearOffsets(s, sizes)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectCommutativeProperty(t *testing.T) {
	f := func(a1, b1, a2, b2 uint8) bool {
		x := New(Dim{int(a1 % 30), int(a1%30) + int(b1%20), 1})
		y := New(Dim{int(a2 % 30), int(a2%30) + int(b2%20), 1})
		ix, okx := x.Intersect(y)
		iy, oky := y.Intersect(x)
		if okx != oky {
			return false
		}
		return !okx || ix.Equal(iy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectWithSelfCoversSameElementsProperty(t *testing.T) {
	// Self-intersection may canonicalize a non-lattice-aligned Hi, so
	// compare element sets rather than structure.
	f := func(lo, n, st uint8) bool {
		s := New(Dim{int(lo % 40), int(lo%40) + int(n%25), int(st%3) + 1})
		if s.Empty() {
			return true
		}
		i, ok := s.Intersect(s)
		if !ok || i.Count() != s.Count() {
			return false
		}
		same := true
		s.ForEach(func(idx []int) {
			if !i.Contains(idx[0]) {
				same = false
			}
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsConsistentWithForEachProperty(t *testing.T) {
	f := func(lo, n, st, probe uint8) bool {
		s := New(Dim{int(lo % 20), int(lo%20) + int(n%15), int(st%3) + 1})
		p := int(probe % 64)
		member := false
		s.ForEach(func(idx []int) {
			if idx[0] == p {
				member = true
			}
		})
		return s.Contains(p) == member
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDimSectionForEach(t *testing.T) {
	s := Section{}
	calls := 0
	s.ForEach(func([]int) { calls++ })
	if calls != 0 {
		t.Fatal("empty-arity section visited elements")
	}
}

func TestNegativeStridePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive stride")
		}
	}()
	Dim{0, 10, 0}.Count()
}

func TestForEachRunExpandsToLinearOffsetsProperty(t *testing.T) {
	// The runs, expanded, are exactly linearOffsets in the same order;
	// a unit-stride leading dimension is visited whole.
	f := func(lo1, n1, st1, lo2, n2, st2, pad uint8) bool {
		d1 := Dim{Lo: int(lo1 % 4), Hi: int(lo1%4) + int(n1%6) - 1, Stride: int(st1%2) + 1}
		d2 := Dim{Lo: int(lo2 % 6), Hi: int(lo2%6) + int(n2%6) - 1, Stride: int(st2%3) + 1}
		s := New(d1, d2)
		sizes := []int{d1.Lo + int(n1%6) + int(pad%3), d2.Lo + int(n2%6) + 1}
		var got []int
		s.ForEachRun(sizes, func(off, n int) {
			if d1.Stride == 1 && n != d1.Count() {
				t.Errorf("%v: run of %d elements, leading dimension has %d", s, n, d1.Count())
			}
			for i := 0; i < n; i++ {
				got = append(got, off+i)
			}
		})
		want := linearOffsets(s, sizes)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] || (i > 0 && got[i] <= got[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachRunRejectsSectionOutsideArray(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a section past the array's end")
		}
	}()
	Range1(0, 10).ForEachRun([]int{10}, func(off, n int) {})
}

func TestForEachRunAllocatesNothing(t *testing.T) {
	s := New(Dim{Lo: 0, Hi: 1, Stride: 1}, Dim{Lo: 3, Hi: 90, Stride: 3}, Dim{Lo: 1, Hi: 4, Stride: 1})
	sizes := []int{2, 100, 5}
	total := 0
	if got := testing.AllocsPerRun(100, func() {
		s.ForEachRun(sizes, func(off, n int) { total += n })
	}); got != 0 {
		t.Fatalf("ForEachRun allocated %v times per call, want 0", got)
	}
	if want := 101 * s.Count(); total != want {
		t.Fatalf("runs covered %d elements over 101 calls, want %d", total, want)
	}
}
