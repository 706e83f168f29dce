// Vector timestamps and write notices for lazy release consistency.
package tmk

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/vm"
)

// VC is a vector timestamp: VC[p] is the most recent interval of
// processor p whose effects are (transitively) visible.
type VC []int32

// NewVC returns a zero vector clock for n processors.
func NewVC(n int) VC { return make(VC, n) }

// Clone returns a copy.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Join merges o into v componentwise (v = v ⊔ o).
func (v VC) Join(o VC) {
	for i, x := range o {
		if x > v[i] {
			v[i] = x
		}
	}
}

// LEq reports whether v ≤ o in the componentwise partial order.
func (v VC) LEq(o VC) bool {
	for i, x := range v {
		if x > o[i] {
			return false
		}
	}
	return true
}

// Sum returns the sum of components. For any two ordered clocks
// a < b (a ≤ b, a ≠ b), Sum(a) < Sum(b), so sorting by Sum yields a
// valid linear extension of the happens-before partial order.
func (v VC) Sum() int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

func (v VC) String() string { return fmt.Sprint([]int32(v)) }

// Notice is a write notice: processor Proc modified a set of pages
// during its interval Interval, which closed at vector time VC. Write
// notices are what the lazy-invalidate protocol propagates at
// synchronization.
//
// On the host a notice is the interval's one record: it holds the
// interval's stored diffs, one per page it modified, in page order, and
// each points back at it for the writer, interval and vector time. Some
// pages may be written in their entirety (WRITE_ALL): a full write
// supersedes every earlier write the writer had seen, so the fetcher can
// skip all notices with VC ≤ this notice's VC — the mechanism behind the
// paper's "the entire page, and not the diff, must be sent on a diff
// request". Nothing changes a notice or its diffs once closeInterval has
// built it.
type Notice struct {
	Proc     int
	Interval int32
	nFull    int32 // how many of diffs are whole-page snapshots
	VC       VC
	vcSum    int64        // VC.Sum(), the causal sort key of its diffs
	diffs    []storedDiff // one per modified page, in ascending page order
}

// IsFull reports whether the notice records a whole-page write of page.
// pruneSuperseded asks it about every pair of a page's pending notices
// and most notices have no whole-page write, so the count answers those
// inline and only the rest are searched.
func (nt *Notice) IsFull(page vm.PageID) bool {
	return nt.nFull > 0 && nt.searchFull(page)
}

func (nt *Notice) searchFull(page vm.PageID) bool {
	i, ok := slices.BinarySearchFunc(nt.diffs, page, func(sd storedDiff, p vm.PageID) int {
		return cmp.Compare(sd.page, p)
	})
	return ok && nt.diffs[i].full
}

// WireBytes is the encoded size of the notice on the wire: header,
// vector time, the page list and the list of its wholly written pages.
func (nt *Notice) WireBytes() int {
	return 8 + 4*len(nt.VC) + 4*len(nt.diffs) + 4*int(nt.nFull)
}

// storedDiff is a diff retained by its writer, indexed by page in
// ascending interval order. A fetcher receives it by pointer — shipping
// it is priced by wireBytes, never copied on the host — so it is
// immutable once stored. Its writer, interval and vector time are its
// notice's.
type storedDiff struct {
	nt *Notice
	// data is the writer's frozen page for a whole-page snapshot (full),
	// aliased copy-on-write by readers, and the encoded diff.Diff
	// otherwise.
	data  []byte
	page  vm.PageID
	dataB int32 // wire bytes of data, cached for every fetch
	full  bool
}

// wireBytes of one shipped diff: metadata plus encoded runs.
func (sd *storedDiff) wireBytes() int {
	return 16 + 4*len(sd.nt.VC) + int(sd.dataB)
}

// compareCausal orders diffs by page and, within a page, by a linear
// extension of happens-before (Sum of the vector clock, ties by writer
// id, then interval). Concurrent diffs only arise from false sharing and
// touch disjoint bytes, so any linear extension applies them correctly.
func compareCausal(a, b *storedDiff) int {
	if c := cmp.Compare(a.page, b.page); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nt.vcSum, b.nt.vcSum); c != 0 {
		return c
	}
	if c := cmp.Compare(a.nt.Proc, b.nt.Proc); c != 0 {
		return c
	}
	return cmp.Compare(a.nt.Interval, b.nt.Interval)
}
