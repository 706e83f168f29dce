package rsd

import (
	"testing"
	"testing/quick"
)

// linearOffsets returns the flat (column-major) element offsets the
// section covers within an array of the given dimension sizes, one per
// element, in forEach's order: the expansion ForEachRun's runs are
// checked against.
func linearOffsets(s Section, sizes []int) []int {
	if len(sizes) != len(s.Dims) {
		panic("rsd: sizes arity mismatch")
	}
	out := make([]int, 0, s.Count())
	forEach(s, func(idx []int) {
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
	// forEach visits.
	f := func(lo1, n1, lo2, n2, st uint8) bool {
		d1 := Dim{Lo: int(lo1 % 4), Hi: int(lo1%4) + int(n1%5), Stride: 1}
		d2 := Dim{Lo: int(lo2 % 6), Hi: int(lo2%6) + int(n2%6), Stride: int(st%2) + 1}
		s := sec(d1, d2)
		sizes := []int{d1.Hi + 1, d2.Hi + 1}
		strideRow := sizes[0]
		var want []int
		forEach(s, func(idx []int) {
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

func TestZeroDimSectionForEach(t *testing.T) {
	s := Section{}
	calls := 0
	forEach(s, func([]int) { calls++ })
	s.ForEachRun(nil, func(int, int) { calls++ })
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
		s := sec(d1, d2)
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
	s := sec(Dim{Lo: 0, Hi: 1, Stride: 1}, Dim{Lo: 3, Hi: 90, Stride: 3}, Dim{Lo: 1, Hi: 4, Stride: 1})
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
