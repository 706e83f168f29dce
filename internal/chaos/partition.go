// Data and iteration partitioning (§4 of the paper): CHAOS partitions
// data arrays with heuristics based on spatial position or load, and
// partitions loop iterations with the almost-owner-computes rule.
package chaos

import (
	"cmp"
	"slices"
)

// Partition assigns each of N global data elements to a processor.
type Partition struct {
	Owner  []int // Owner[g] is the processor owning global element g
	NProcs int
}

// Counts returns the number of elements owned by each processor.
func (p *Partition) Counts() []int {
	c := make([]int, p.NProcs)
	for _, o := range p.Owner {
		c[o]++
	}
	return c
}

// Owned lists each processor's elements in ascending global order —
// the order of the owned prefix of its remapped local arrays.
func (p *Partition) Owned() [][]int {
	out := make([][]int, p.NProcs)
	for o, c := range p.Counts() {
		out[o] = make([]int, 0, c)
	}
	for g, o := range p.Owner {
		out[o] = append(out[o], g)
	}
	return out
}

// Block partitions n elements into contiguous blocks, one per processor
// (the BLOCK distribution; nbf uses this since its load is uniform).
func Block(n, nprocs int) *Partition {
	owner := make([]int, n)
	for g := 0; g < n; g++ {
		owner[g] = blockOwner(g, n, nprocs)
	}
	return &Partition{Owner: owner, NProcs: nprocs}
}

// blockOwner computes the owner of g under a BLOCK distribution with
// ceiling-sized blocks.
func blockOwner(g, n, nprocs int) int {
	sz := (n + nprocs - 1) / nprocs
	return g / sz
}

// BlockRange returns processor p's element range [lo, hi) under Block.
func BlockRange(n, nprocs, p int) (lo, hi int) {
	sz := (n + nprocs - 1) / nprocs
	lo = p * sz
	hi = lo + sz
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return
}

// RCB implements the Recursive Coordinate Bisection partitioner: it
// recursively splits the element set along the coordinate dimension with
// the largest spatial extent, balancing element counts, so that
// spatially close elements (which interact) land on the same processor.
// This is the partitioner both the CHAOS and TreadMarks moldyn programs
// use in the paper.
func RCB(coords [][3]float64, nprocs int) *Partition {
	n := len(coords)
	owner := make([]int, n)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	rcbSplit(coords, ids, 0, nprocs, owner)
	return &Partition{Owner: owner, NProcs: nprocs}
}

// rcbSplit assigns the elements in ids to processors [base, base+count).
func rcbSplit(coords [][3]float64, ids []int, base, count int, owner []int) {
	if count == 1 || len(ids) == 0 {
		for _, id := range ids {
			owner[id] = base
		}
		return
	}
	// Split dimension: largest extent.
	var lo, hi [3]float64
	for d := 0; d < 3; d++ {
		lo[d], hi[d] = coords[ids[0]][d], coords[ids[0]][d]
	}
	for _, id := range ids {
		for d := 0; d < 3; d++ {
			if coords[id][d] < lo[d] {
				lo[d] = coords[id][d]
			}
			if coords[id][d] > hi[d] {
				hi[d] = coords[id][d]
			}
		}
	}
	dim := 0
	for d := 1; d < 3; d++ {
		if hi[d]-lo[d] > hi[dim]-lo[dim] {
			dim = d
		}
	}
	// Ids are distinct, so (coordinate, id) is a total order and the
	// result cannot depend on the sort algorithm.
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(coords[a][dim], coords[b][dim]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Processor counts split as evenly as possible; element counts split
	// proportionally.
	leftProcs := count / 2
	rightProcs := count - leftProcs
	cut := len(ids) * leftProcs / count
	rcbSplit(coords, ids[:cut], base, leftProcs, owner)
	rcbSplit(coords, ids[cut:], base+leftProcs, rightProcs, owner)
}

// PartitionPairs applies almost-owner-computes to iterations that each
// access two elements: with two elements the majority rule reduces to
// the first element's owner. It returns the pairs stably sorted by that
// owner (a counting sort: count, prefix-sum, place) and the section
// boundaries starts, where processor p's pairs occupy
// sorted[starts[p]:starts[p+1]]. The regular section of the indirection
// array each processor accesses — the compiler's key fact — is exactly
// that contiguous range. Only the two results are allocated.
func PartitionPairs(pairs [][2]int32, part *Partition) (sorted [][2]int32, starts []int) {
	nprocs := part.NProcs
	starts = make([]int, nprocs+1)
	for _, pr := range pairs {
		starts[part.Owner[pr[0]]+1]++
	}
	for p := 0; p < nprocs; p++ {
		starts[p+1] += starts[p]
	}
	// Place each pair at its owner's cursor, kept in starts[o] (which
	// therefore ends at the section's end, i.e. starts[o+1]); shift
	// back afterwards.
	sorted = make([][2]int32, len(pairs))
	for _, pr := range pairs {
		o := part.Owner[pr[0]]
		sorted[starts[o]] = pr
		starts[o]++
	}
	copy(starts[1:], starts[:nprocs])
	starts[0] = 0
	return sorted, starts
}

// Remap is the CHAOS remapping step: it renumbers global elements so
// that each processor's elements are consecutive, returning local
// offsets and per-processor counts. Local[g] is g's offset within its
// owner's block.
func Remap(part *Partition) (local []int32, counts []int) {
	counts = make([]int, part.NProcs)
	local = make([]int32, len(part.Owner))
	for g, o := range part.Owner {
		local[g] = int32(counts[o])
		counts[o]++
	}
	return
}
