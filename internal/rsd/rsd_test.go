package rsd

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestDimCount(t *testing.T) {
	cases := []struct {
		d    Dim
		want int
	}{
		{Dim{0, 9, 1}, 10},
		{Dim{1, 9, 2}, 5},
		{Dim{5, 4, 1}, 0},
		{Dim{3, 3, 7}, 1},
	}
	for _, c := range cases {
		if got := c.d.Count(); got != c.want {
			t.Errorf("%+v.Count() = %d, want %d", c.d, got, c.want)
		}
	}
}

// sec builds a section from its dimensions.
func sec(dims ...Dim) Section { return Section{Dims: dims} }

// forEach visits every index tuple in the section in column-major order
// (leftmost dimension varying fastest, matching Fortran array layout):
// the element-by-element definition ForEachRun is checked against. The
// callback receives a reused slice.
func forEach(s Section, f func(idx []int)) {
	if len(s.Dims) == 0 {
		return
	}
	idx := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		if d.Count() == 0 {
			return
		}
		idx[i] = d.Lo
	}
	for {
		f(idx)
		k := 0
		for {
			idx[k] += s.Dims[k].Stride
			if idx[k] <= s.Dims[k].Hi {
				break
			}
			idx[k] = s.Dims[k].Lo
			k++
			if k == len(s.Dims) {
				return
			}
		}
	}
}

func TestForEachColumnMajor(t *testing.T) {
	s := sec(Dim{0, 1, 1}, Dim{10, 12, 1})
	var got [][2]int
	forEach(s, func(idx []int) {
		got = append(got, [2]int{idx[0], idx[1]})
	})
	want := [][2]int{{0, 10}, {1, 10}, {0, 11}, {1, 11}, {0, 12}, {1, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestForEachCountMatchesCountProperty(t *testing.T) {
	f := func(lo1, n1, st1, lo2, n2, st2 uint8) bool {
		s := sec(
			Dim{int(lo1 % 20), int(lo1%20) + int(n1%15), int(st1%4) + 1},
			Dim{int(lo2 % 20), int(lo2%20) + int(n2%15), int(st2%4) + 1},
		)
		cnt := 0
		forEach(s, func([]int) { cnt++ })
		return cnt == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearOffsets2D(t *testing.T) {
	// A (2, M) Fortran array: column-major, leftmost fastest.
	s := sec(Dim{0, 1, 1}, Dim{3, 4, 1})
	got := linearOffsets(s, []int{2, 10})
	want := []int{6, 7, 8, 9} // columns 3 and 4: offsets 2*3..2*3+1, 2*4..2*4+1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestLinearOffsets1D(t *testing.T) {
	s := Range1(5, 8)
	got := linearOffsets(s, []int{100})
	if !reflect.DeepEqual(got, []int{5, 6, 7, 8}) {
		t.Fatalf("got %v", got)
	}
}

func TestString(t *testing.T) {
	s := sec(Dim{1, 2, 1}, Dim{1, 100, 2})
	if s.String() != "[1:2, 1:100:2]" {
		t.Fatalf("got %q", s.String())
	}
}

func TestEmpty(t *testing.T) {
	if n := Range1(5, 4).Count(); n != 0 {
		t.Fatalf("reversed range counts %d elements", n)
	}
	Range1(5, 4).ForEachRun([]int{10}, func(off, n int) {
		t.Fatalf("reversed range visited a run at %d", off)
	})
	if n := Range1(5, 5).Count(); n != 1 {
		t.Fatalf("singleton range counts %d elements", n)
	}
}
