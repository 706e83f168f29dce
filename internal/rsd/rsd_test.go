package rsd

import (
	"math/rand"
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

func TestForEachColumnMajor(t *testing.T) {
	s := New(Dim{0, 1, 1}, Dim{10, 12, 1})
	var got [][2]int
	s.ForEach(func(idx []int) {
		got = append(got, [2]int{idx[0], idx[1]})
	})
	want := [][2]int{{0, 10}, {1, 10}, {0, 11}, {1, 11}, {0, 12}, {1, 12}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestForEachCountMatchesCountProperty(t *testing.T) {
	f := func(lo1, n1, st1, lo2, n2, st2 uint8) bool {
		s := New(
			Dim{int(lo1 % 20), int(lo1%20) + int(n1%15), int(st1%4) + 1},
			Dim{int(lo2 % 20), int(lo2%20) + int(n2%15), int(st2%4) + 1},
		)
		cnt := 0
		s.ForEach(func([]int) { cnt++ })
		return cnt == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	s := New(Dim{0, 10, 2})
	for i := 0; i <= 10; i += 2 {
		if !s.Contains(i) {
			t.Errorf("should contain %d", i)
		}
	}
	for _, i := range []int{1, 3, 11, -2} {
		if s.Contains(i) {
			t.Errorf("should not contain %d", i)
		}
	}
}

func TestIntersectDense(t *testing.T) {
	a := Range1(0, 100)
	b := Range1(50, 150)
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(Range1(50, 100)) {
		t.Fatalf("got %v ok=%v", got, ok)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := Range1(0, 10)
	b := Range1(20, 30)
	if _, ok := a.Intersect(b); ok {
		t.Fatal("disjoint ranges intersected")
	}
}

func TestIntersectStridedAligned(t *testing.T) {
	a := New(Dim{0, 20, 2})
	b := New(Dim{4, 16, 2})
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(New(Dim{4, 16, 2})) {
		t.Fatalf("got %v ok=%v", got, ok)
	}
}

func TestIntersectStridedOffsetLattices(t *testing.T) {
	a := New(Dim{0, 20, 2}) // evens
	b := New(Dim{1, 21, 2}) // odds
	if _, ok := a.Intersect(b); ok {
		t.Fatal("offset lattices with equal stride should be disjoint")
	}
}

func TestIntersectIsSoundProperty(t *testing.T) {
	// Every element in the exact intersection must be in both sections,
	// and (for equal strides) every common element must be in the result.
	f := func(lo1, n1, lo2, n2, stRaw uint8) bool {
		st := int(stRaw%3) + 1
		a := New(Dim{int(lo1 % 30), int(lo1%30) + int(n1%20), st})
		b := New(Dim{int(lo2 % 30), int(lo2%30) + int(n2%20), st})
		in := map[int]bool{}
		a.ForEach(func(idx []int) {
			if b.Contains(idx[0]) {
				in[idx[0]] = true
			}
		})
		got, ok := a.Intersect(b)
		if !ok {
			return len(in) == 0
		}
		cnt := 0
		okAll := true
		got.ForEach(func(idx []int) {
			cnt++
			if !in[idx[0]] {
				okAll = false
			}
		})
		return okAll && cnt == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearOffsets2D(t *testing.T) {
	// A (2, M) Fortran array: column-major, leftmost fastest.
	s := New(Dim{0, 1, 1}, Dim{3, 4, 1})
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
	s := New(Dim{1, 2, 1}, Dim{1, 100, 2})
	if s.String() != "[1:2, 1:100:2]" {
		t.Fatalf("got %q", s.String())
	}
}

func TestEmpty(t *testing.T) {
	if !Range1(5, 4).Empty() {
		t.Fatal("reversed range should be empty")
	}
	if Range1(5, 5).Empty() {
		t.Fatal("singleton range should not be empty")
	}
}

func TestOverlapsRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		a := New(Dim{rng.Intn(20), rng.Intn(20) + 10, 1})
		b := New(Dim{rng.Intn(20), rng.Intn(20) + 10, 1})
		brute := false
		a.ForEach(func(idx []int) {
			if b.Contains(idx[0]) {
				brute = true
			}
		})
		if got := a.Overlaps(b); got != brute {
			t.Fatalf("Overlaps(%v, %v) = %v, brute force %v", a, b, got, brute)
		}
	}
}
