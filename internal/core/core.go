// Package core implements the paper's primary contribution: the
// augmented software-DSM run-time interface for irregular applications
// (§3, Figure 3). The compiler front-end inserts a call to Validate
// before an indirect computation loop; Validate
//
//  1. determines the set of shared pages the loop will access — for an
//     INDIRECT descriptor by scanning the compiler-identified regular
//     section of the indirection array (Read_indices), for a DIRECT
//     descriptor from the section itself;
//  2. caches that page set per schedule and write-protects the pages
//     holding the indirection array, so the set is recomputed only when
//     a protection violation (local write) or an invalidation (remote
//     write) signals that the indirection array changed;
//  3. fetches the diffs for every invalid page in the set, with all
//     requests to the same remote processor aggregated into a single
//     message exchange, overlapped across processors;
//  4. preemptively creates twins (or, for WRITE_ALL/READ&WRITE_ALL
//     accesses, marks pages fully-written so a whole-page snapshot
//     replaces stacks of overlapping diffs) and enables write access,
//     avoiding the per-page write faults during the loop.
package core

import (
	"fmt"
	"slices"

	"repro/internal/rsd"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// AccessType describes how a section of shared data is accessed
// (Figure 3 of the paper).
type AccessType int

const (
	// Read: the section is only read.
	Read AccessType = iota
	// Write: the section is partially written.
	Write
	// ReadWrite: the section is read and partially written.
	ReadWrite
	// WriteAll: every element of the section is written (direct accesses
	// only); twinning is skipped.
	WriteAll
	// ReadWriteAll: every element is read and then overwritten (the
	// pipelined reduction pattern); twinning is skipped and the run-time
	// ships the entire page, not a diff, on a diff request.
	ReadWriteAll
)

func (a AccessType) String() string {
	switch a {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	case ReadWrite:
		return "READ&WRITE"
	case WriteAll:
		return "WRITE_ALL"
	case ReadWriteAll:
		return "READ&WRITE_ALL"
	}
	return fmt.Sprintf("AccessType(%d)", int(a))
}

// writes reports whether the access stores to the data.
func (a AccessType) writes() bool { return a != Read }

// full reports whether every element is known to be written.
func (a AccessType) full() bool { return a == WriteAll || a == ReadWriteAll }

// DescType distinguishes regular from indirection-mediated accesses.
type DescType int

const (
	// Direct: a regular access; Section describes the shared data itself.
	Direct DescType = iota
	// Indirect: an access through an indirection array; Section
	// describes the part of the indirection array this processor scans.
	Indirect
)

func (t DescType) String() string {
	if t == Direct {
		return "DIRECT"
	}
	return "INDIRECT"
}

// Array describes a shared array: a base address plus geometry. The
// indexed unit is one "entity" (e.g. one molecule's 3-vector), so
// ElemSize is the byte size of that unit and Len the number of units.
type Array struct {
	Name     string
	Base     vm.Addr
	ElemSize int
	Len      int
}

// Addr returns the address of unit i.
func (a *Array) Addr(i int) vm.Addr {
	return a.Base + vm.Addr(i*a.ElemSize)
}

// Desc is one access descriptor passed to Validate (Figure 3: type,
// base, section, access type, schedule number).
type Desc struct {
	Type    DescType
	Data    *Array      // the shared data structure being accessed
	Indir   *Array      // the indirection array (Indirect only)
	Section rsd.Section // section of Indir (Indirect) or of Data (Direct)
	// IndirDims gives the indirection array's per-dimension sizes
	// (column-major) when it is multi-dimensional, e.g. [2, M] for
	// moldyn's interaction_list(2, M); defaults to the flat [Len].
	IndirDims []int
	Access    AccessType
	Sched     int // schedule number: identifier of the cached page set
}

// indirSizes returns the dimension sizes used to linearize Section over
// the indirection array. The flat default [Len] is written into one, a
// buffer the caller keeps on its stack.
func (d *Desc) indirSizes(one *[1]int) []int {
	if len(d.IndirDims) > 0 {
		return d.IndirDims
	}
	one[0] = d.Indir.Len
	return one[:]
}

// schedule is the cached state for one schedule number.
type schedule struct {
	id int
	// pages is the computed page set, sorted. Its backing array belongs
	// to this schedule alone: recomputation rewrites it in place, so it
	// never aliases another schedule's set or the Runtime's scratch.
	pages    []vm.PageID
	computed bool
	modified bool        // indirection array changed since last compute
	section  rsd.Section // the section the page set was computed for
	watch    []vm.PageID // write-protected indirection pages, sorted
	call     uint64      // the Validate call that last resolved this schedule
}

// pageSet is a dense set of pages: a page is a member while its stamp
// equals the epoch, so emptying the set is one increment.
type pageSet struct {
	stamp []uint32
	epoch uint32
}

func newPageSet(pages int) pageSet { return pageSet{stamp: make([]uint32, pages), epoch: 1} }

// reset empties the set.
func (s *pageSet) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: a stale stamp could equal the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

// add inserts pg and reports whether it was absent.
func (s *pageSet) add(pg vm.PageID) bool {
	if s.stamp[pg] == s.epoch {
		return false
	}
	s.stamp[pg] = s.epoch
	return true
}

// pageRange is the page interval [lo, hi).
type pageRange struct{ lo, hi vm.PageID }

func (r pageRange) has(pg vm.PageID) bool { return r.lo <= pg && pg < r.hi }

// Runtime is the augmented run-time system of §3.2, one per processor.
// It layers on the node's TreadMarks protocol instance.
type Runtime struct {
	n         *tmk.Node
	schedules []*schedule // in creation order; a runtime has a handful

	// Cost model for the index scan (the "checking the indirection
	// array" times reported in §5: ~0.4–0.8 s for moldyn's list vs
	// 6.2–9.2 s for the CHAOS inspector).
	ScanUSPerEntry   float64
	PageSetUSPerPage float64

	// Aggregation can be disabled for ablation A3: Validate then fetches
	// each page with its own exchange, like the base system.
	NoAggregation bool

	// Counters.
	Recomputes  int64
	Revalidates int64
	ScanEntries int64

	// Scratch reused from call to call (DESIGN.md §3, "Host-side data
	// path"). Validate runs on its node's goroutine only and never
	// re-enters, so one instance per Runtime suffices.
	calls    uint64
	mark     pageSet       // readIndices: the data pages already collected
	seen     pageSet       // Validate: the pages on the fetch list
	prefetch []vm.PageID   // readIndices: the indirection section's invalid pages
	pageSets [][]vm.PageID // Validate: each descriptor's pages
	covered  []pageRange   // Validate: each descriptor's fully covered pages
	direct   []vm.PageID   // Validate: the Direct descriptors' pages, back to back
	fetch    []vm.PageID   // Validate: the aggregated fetch list
}

// DiffKind is the stat category for Validate's aggregated fetches.
const DiffKind = "validate.diff"

// NewRuntime attaches an augmented run-time to a node. It takes over the
// node's fault hooks (for indirection-array change detection).
func NewRuntime(n *tmk.Node) *Runtime {
	pages := n.Space().Arena().Capacity()
	rt := &Runtime{
		n:                n,
		ScanUSPerEntry:   0.030,
		PageSetUSPerPage: 0.30,
		mark:             newPageSet(pages),
		seen:             newPageSet(pages),
	}
	n.DSM().RegisterDiffKind(DiffKind)
	// Both a local write fault (the paper's protection-violation handler
	// "sets a flag") and a remote write notice invalidating the page
	// ("both local and remote modifications cause the modified function
	// to return true") mark the schedules watching it.
	n.WriteFaultHook = rt.markModified
	n.InvalidateHook = rt.markModified
	return rt
}

// markModified flags every schedule watching page for recomputation.
func (rt *Runtime) markModified(page vm.PageID) {
	for _, sch := range rt.schedules {
		if _, ok := slices.BinarySearch(sch.watch, page); ok {
			sch.modified = true
		}
	}
}

func (rt *Runtime) sched(id int) *schedule {
	for _, sch := range rt.schedules {
		if sch.id == id {
			return sch
		}
	}
	sch := &schedule{id: id, modified: true}
	rt.schedules = append(rt.schedules, sch)
	return sch
}

// Validate is the run-time entry point of Figure 3. It accepts any
// number of access descriptors, computes/reuses their page sets, fetches
// all invalid pages with communication aggregated per remote processor,
// and performs preemptive consistency actions (twin creation,
// write-enabling, whole-page-reduction marking).
func (rt *Runtime) Validate(descs ...Desc) {
	rt.calls++
	rt.pageSets, rt.covered = rt.pageSets[:0], rt.covered[:0]
	rt.direct, rt.fetch = rt.direct[:0], rt.fetch[:0]
	rt.seen.reset()

	// Pass 1: resolve each descriptor's page set.
	for i := range descs {
		d := &descs[i]
		var covered pageRange
		if d.Access.full() {
			covered = rt.fullyCovered(d)
		}
		var pages []vm.PageID
		switch d.Type {
		case Indirect:
			sch := rt.sched(d.Sched)
			// A changed section (the loop bounds moved, e.g. after the
			// interaction list was rebuilt with a different size) also
			// forces recomputation, independent of the modified flag.
			if !sch.computed || sch.modified || !sch.section.Equal(d.Section) {
				if sch.call == rt.calls {
					// An earlier descriptor of this call still holds the
					// page set for pass 3: recompute into a copy.
					sch.pages = slices.Clone(sch.pages)
				}
				rt.readIndices(sch, d)
				rt.writeProtect(sch, d)
				sch.computed = true
				sch.modified = false
				sch.section = d.Section
				rt.Recomputes++
			} else {
				rt.Revalidates++
			}
			sch.call = rt.calls
			pages = sch.pages
		case Direct:
			sizes := [1]int{d.Data.Len}
			start := len(rt.direct)
			rt.direct = rt.sectionPages(rt.direct, d.Data, d.Section, sizes[:])
			pages = rt.direct[start:]
		default:
			panic("core: bad descriptor type")
		}
		rt.pageSets = append(rt.pageSets, pages)
		rt.covered = append(rt.covered, covered)
		for _, pg := range pages {
			// A WRITE_ALL page entirely inside the section needs no
			// fetch: every byte will be overwritten. Boundary pages (and
			// all READ&WRITE_ALL pages, which are read first) fetch.
			if d.Access == WriteAll && covered.has(pg) {
				continue
			}
			if rt.n.IsInvalid(pg) && rt.seen.add(pg) {
				rt.fetch = append(rt.fetch, pg)
			}
		}
	}

	// Pass 2: fetch the diffs for every invalid page. All diff requests
	// to the same processor are aggregated into a single message.
	if len(rt.fetch) > 0 {
		if rt.NoAggregation {
			for i := range rt.fetch {
				rt.n.FetchPages(rt.fetch[i:i+1], DiffKind)
			}
		} else {
			rt.n.FetchPages(rt.fetch, DiffKind)
		}
	}

	// Pass 3: preemptive consistency actions — create twins and enable
	// write access so the loop itself runs without protection faults.
	// WRITE_ALL semantics (no twin, whole-page snapshot diff) apply only
	// to pages entirely inside the written section; pages straddling the
	// section boundary keep the ordinary twin-and-diff path, since their
	// outside bytes are owned by someone else.
	for i := range descs {
		d := &descs[i]
		if !d.Access.writes() {
			continue
		}
		for _, pg := range rt.pageSets[i] {
			if d.Access.full() && rt.covered[i].has(pg) {
				rt.n.MarkFullyWritten(pg)
			} else {
				rt.n.TwinForWrite(pg, false)
			}
		}
	}
}

// fullyCovered returns the pages whose every byte lies inside the
// descriptor's section — the pages on which WRITE_ALL may skip twinning
// and ship a whole-page snapshot. Only dense one-dimensional direct
// sections qualify; anything else conservatively returns none.
func (rt *Runtime) fullyCovered(d *Desc) pageRange {
	if d.Type != Direct || len(d.Section.Dims) != 1 || d.Section.Dims[0].Stride != 1 {
		return pageRange{}
	}
	dim := d.Section.Dims[0]
	if dim.Hi < dim.Lo {
		return pageRange{}
	}
	startB := int(d.Data.Addr(dim.Lo))
	endB := int(d.Data.Addr(dim.Hi)) + d.Data.ElemSize
	ps := rt.n.Space().Arena().PageSize()
	lo, hi := vm.PageID((startB+ps-1)/ps), vm.PageID(endB/ps)
	return pageRange{lo, max(lo, hi)}
}

// readIndices recomputes pages[sch] by scanning the section of the
// indirection array and collecting the pages of the data array that the
// indices touch (Figure 3's Read_indices).
func (rt *Runtime) readIndices(sch *schedule, d *Desc) {
	if d.Indir == nil {
		panic("core: INDIRECT descriptor without indirection array")
	}
	arena := rt.n.Space().Arena()
	space := rt.n.Space()
	var one [1]int
	sizes := d.indirSizes(&one)

	// The indirection array's section is regular: fetch it aggregated
	// before scanning (it may have been invalidated by a rebuild).
	rt.prefetchSection(d.Indir, d.Section, sizes)

	// Each index read adds the pages of the data unit it names.
	rt.mark.reset()
	pages := sch.pages[:0]
	d.Section.ForEachRun(sizes, func(off, n int) {
		for k := off; k < off+n; k++ {
			v := space.ReadI32(d.Indir.Addr(k))
			first, last := arena.PageRange(d.Data.Addr(int(v)), d.Data.ElemSize)
			for pg := first; pg <= last; pg++ {
				if rt.mark.add(pg) {
					pages = append(pages, pg)
				}
			}
		}
	})
	slices.Sort(pages)
	sch.pages = pages
	scanned := int64(d.Section.Count())
	rt.ScanEntries += scanned
	rt.n.Proc().Advance(rt.ScanUSPerEntry*float64(scanned) +
		rt.PageSetUSPerPage*float64(len(sch.pages)))
}

// writeProtect write-protects the pages holding the scanned section of
// the indirection array and makes them the schedule's watch set, so a
// later write (local fault) or invalidation (remote notice) flips its
// modified flag (§3.2: "the pages in section are write protected").
func (rt *Runtime) writeProtect(sch *schedule, d *Desc) {
	space := rt.n.Space()
	var one [1]int
	sch.watch = rt.sectionPages(sch.watch[:0], d.Indir, d.Section, d.indirSizes(&one))
	for _, pg := range sch.watch {
		if space.Page(pg).Prot() == vm.ReadWrite {
			space.Protect(pg, vm.ReadOnly)
		}
	}
}

// prefetchSection fetches (aggregated) any invalid pages of arr holding
// the section sec, linearized over sizes.
func (rt *Runtime) prefetchSection(arr *Array, sec rsd.Section, sizes []int) {
	fetch := rt.sectionPages(rt.prefetch[:0], arr, sec, sizes)
	fetch = slices.DeleteFunc(fetch, func(pg vm.PageID) bool { return !rt.n.IsInvalid(pg) })
	if len(fetch) > 0 {
		rt.n.FetchPages(fetch, DiffKind)
	}
	rt.prefetch = fetch
}

// sectionPages appends to out the sorted pages of arr holding the
// section sec, linearized over sizes (arr's dimensions in units of its
// elements). It walks the section's contiguous runs, which arrive in
// address order, so a page is new exactly when it lies past the last one
// appended.
func (rt *Runtime) sectionPages(out []vm.PageID, arr *Array, sec rsd.Section, sizes []int) []vm.PageID {
	arena := rt.n.Space().Arena()
	start := len(out)
	sec.ForEachRun(sizes, func(off, n int) {
		first, last := arena.PageRange(arr.Addr(off), n*arr.ElemSize)
		if k := len(out); k > start && first <= out[k-1] {
			first = out[k-1] + 1
		}
		for pg := first; pg <= last; pg++ {
			out = append(out, pg)
		}
	})
	return out
}
