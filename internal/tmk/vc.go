// Vector timestamps and write notices for lazy release consistency.
package tmk

import (
	"cmp"
	"fmt"

	"repro/internal/diff"
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

// Notice is a write notice: processor Proc modified Pages during its
// interval Interval, which closed at vector time VC. Write notices are
// what the lazy-invalidate protocol propagates at synchronization.
// FullPages lists the subset of Pages that were written in their
// entirety (WRITE_ALL): a full write supersedes every earlier write the
// writer had seen, so the fetcher can skip all notices with VC ≤ this
// notice's VC — the mechanism behind the paper's "the entire page, and
// not the diff, must be sent on a diff request".
type Notice struct {
	Proc      int
	Interval  int32
	VC        VC
	Pages     []vm.PageID
	FullPages []vm.PageID
}

// IsFull reports whether the notice records a whole-page write of page.
func (nt *Notice) IsFull(page vm.PageID) bool {
	for _, p := range nt.FullPages {
		if p == page {
			return true
		}
	}
	return false
}

// WireBytes is the encoded size of the notice on the wire.
func (nt *Notice) WireBytes() int {
	return 8 + 4*len(nt.VC) + 4*len(nt.Pages) + 4*len(nt.FullPages)
}

// storedDiff is a diff retained by its writer, indexed by page in
// ascending interval order. A fetcher receives it by pointer — shipping
// it is priced by wireBytes, never copied on the host — so it is
// immutable once stored. vcSum and dataB cache what every fetch would
// otherwise recompute.
type storedDiff struct {
	page     vm.PageID
	proc     int
	interval int32
	vc       VC
	vcSum    int64 // vc.Sum(), the causal sort key
	full     bool  // whole-page snapshot: d is one run over the writer's frozen page
	d        diff.Diff
	dataB    int // d.WireBytes()
}

// wireBytes of one shipped diff: metadata plus encoded runs.
func (sd *storedDiff) wireBytes() int {
	return 16 + 4*len(sd.vc) + sd.dataB
}

// compareCausal orders diffs by page and, within a page, by a linear
// extension of happens-before (Sum of the vector clock, ties by writer
// id, then interval). Concurrent diffs only arise from false sharing and
// touch disjoint bytes, so any linear extension applies them correctly.
func compareCausal(a, b *storedDiff) int {
	if c := cmp.Compare(a.page, b.page); c != 0 {
		return c
	}
	if c := cmp.Compare(a.vcSum, b.vcSum); c != 0 {
		return c
	}
	if c := cmp.Compare(a.proc, b.proc); c != 0 {
		return c
	}
	return cmp.Compare(a.interval, b.interval)
}
