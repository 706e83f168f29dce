package apps

import "iter"

// RowRefs is a CHAOS inspector's reference stream for rows [lo, hi) of
// a flat per-row index list: each row's own index, then its per
// entries of refs. The stream reads refs in place.
func RowRefs(lo, hi, per int, refs []int32) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := lo; i < hi; i++ {
			if !yield(i) {
				return
			}
			for _, r := range refs[i*per : (i+1)*per] {
				if !yield(int(r)) {
					return
				}
			}
		}
	}
}

// PairRefs is a CHAOS inspector's reference stream for an interaction
// or edge list: both endpoints of every pair, in list order. The stream
// reads pairs in place.
func PairRefs(pairs [][2]int32) iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, pr := range pairs {
			if !yield(int(pr[0])) || !yield(int(pr[1])) {
				return
			}
		}
	}
}

// pairChunk is the number of pairs a PairBuilder chunk holds (64 KiB).
const pairChunk = 8192

// PairBuilder collects an interaction or edge list of unknown length in
// fixed-size chunks, so the list is copied once, into storage of exactly
// its final size, instead of being regrown by append. The zero value is
// ready to use.
type PairBuilder struct {
	full [][][2]int32 // filled chunks, in insertion order
	cur  [][2]int32   // the chunk being filled
}

// Add appends the pair (i, j).
func (b *PairBuilder) Add(i, j int32) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([][2]int32, 0, pairChunk)
	}
	b.cur = append(b.cur, [2]int32{i, j})
}

// Pairs returns every added pair in insertion order, in a slice whose
// capacity is its length (nil when none was added).
func (b *PairBuilder) Pairs() [][2]int32 {
	n := len(b.full)*pairChunk + len(b.cur)
	if n == 0 {
		return nil
	}
	out := make([][2]int32, 0, n)
	for _, c := range b.full {
		out = append(out, c...)
	}
	return append(out, b.cur...)
}
