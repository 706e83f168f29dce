package apps

import (
	"reflect"
	"slices"
	"testing"
)

// TestPairBuilder covers the builder at its chunk boundaries: the
// result holds every added pair in insertion order, at exactly its
// length, and nothing at all when nothing was added.
func TestPairBuilder(t *testing.T) {
	for _, n := range []int{0, 1, pairChunk - 1, pairChunk, pairChunk + 1, 3*pairChunk + 17} {
		var b PairBuilder
		want := make([][2]int32, 0, n)
		for k := 0; k < n; k++ {
			// A permutation-like sequence, so a reordered chunk shows.
			pr := [2]int32{int32((k * 7919) % (n + 1)), int32(k)}
			b.Add(pr[0], pr[1])
			want = append(want, pr)
		}
		got := b.Pairs()
		if n == 0 {
			if got != nil {
				t.Fatalf("empty builder returned %v, want nil", got)
			}
			continue
		}
		if len(got) != cap(got) {
			t.Errorf("n=%d: len %d != cap %d", n, len(got), cap(got))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: pairs differ from insertion order", n)
		}
	}
}

func TestRefStreams(t *testing.T) {
	refs := []int32{5, 6, 7, 8, 9, 10}
	if got := slices.Collect(RowRefs(1, 3, 2, refs)); !reflect.DeepEqual(got, []int{1, 7, 8, 2, 9, 10}) {
		t.Errorf("RowRefs = %v", got)
	}
	pairs := [][2]int32{{3, 1}, {0, 3}}
	if got := slices.Collect(PairRefs(pairs)); !reflect.DeepEqual(got, []int{3, 1, 0, 3}) {
		t.Errorf("PairRefs = %v", got)
	}
	// An early stop is honoured mid-row and mid-pair: the runtime panics
	// if a stream yields again after its loop body returned false.
	for _, seq := range []func(func(int) bool){RowRefs(0, 3, 2, refs), PairRefs(pairs)} {
		k := 0
		for range seq {
			if k++; k == 2 {
				break
			}
		}
	}
}
