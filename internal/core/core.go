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
	"sort"

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

// Bytes returns the array's total size.
func (a *Array) Bytes() int { return a.ElemSize * a.Len }

// Addr returns the address of unit i.
func (a *Array) Addr(i int) vm.Addr {
	return a.Base + vm.Addr(i*a.ElemSize)
}

// Desc is one access descriptor passed to Validate (Figure 3: type,
// base, section, access type, schedule number).
type Desc struct {
	Type  DescType
	Data  *Array // the shared data structure being accessed
	Indir *Array // the indirection array (Indirect only)
	// Indirs, when non-nil, is a multi-level indirection chain (§3.3:
	// the approach "naturally extends to multiple levels of indirection
	// without additional mechanisms"): Section applies to Indirs[0],
	// each level's values index the next, and the last level's values
	// index Data. Indirs[0] must equal Indir.
	Indirs  []*Array
	Section rsd.Section // section of Indir (Indirect) or of Data (Direct)
	// IndirDims gives the indirection array's per-dimension sizes
	// (column-major) when it is multi-dimensional, e.g. [2, M] for
	// moldyn's interaction_list(2, M); defaults to the flat [Len].
	IndirDims []int
	Access    AccessType
	Sched     int // schedule number: identifier of the cached page set
}

// indirSizes returns the dimension sizes used to linearize Section over
// the indirection array.
func (d *Desc) indirSizes() []int {
	if len(d.IndirDims) > 0 {
		return d.IndirDims
	}
	return []int{d.Indir.Len}
}

// schedule is the cached state for one schedule number.
type schedule struct {
	id       int
	pages    []vm.PageID // computed page set, sorted
	computed bool
	modified bool        // indirection array changed since last compute
	section  rsd.Section // the section the page set was computed for
	watch    []vm.PageID // write-protected indirection pages

	// Incremental recomputation state (the paper's "more sophisticated
	// version ... could use diffing to incrementally recompute the page
	// sets"); populated only when the Runtime enables it.
	prevIdx []int32 // previous indirection values
	refcnt  map[vm.PageID]int
}

// Runtime is the augmented run-time system of §3.2, one per processor.
// It layers on the node's TreadMarks protocol instance.
type Runtime struct {
	n         *tmk.Node
	schedules map[int]*schedule
	watched   map[vm.PageID][]*schedule

	// Cost model for the index scan (the "checking the indirection
	// array" times reported in §5: ~0.4–0.8 s for moldyn's list vs
	// 6.2–9.2 s for the CHAOS inspector).
	ScanUSPerEntry     float64
	IncrScanUSPerEntry float64
	PageSetUSPerPage   float64

	// Incremental enables diff-style incremental page-set recomputation
	// (extension S13; off by default to match the paper's implementation).
	Incremental bool

	// Aggregation can be disabled for ablation A1: Validate then fetches
	// each page with its own exchange, like the base system.
	NoAggregation bool

	// Counters.
	Recomputes  int64
	Revalidates int64
	ScanEntries int64
}

// DiffKind is the stat category for Validate's aggregated fetches.
const DiffKind = "validate.diff"

// NewRuntime attaches an augmented run-time to a node. It takes over the
// node's fault hooks (for indirection-array change detection).
func NewRuntime(n *tmk.Node) *Runtime {
	rt := &Runtime{
		n:                  n,
		schedules:          map[int]*schedule{},
		watched:            map[vm.PageID][]*schedule{},
		ScanUSPerEntry:     0.030,
		IncrScanUSPerEntry: 0.008,
		PageSetUSPerPage:   0.30,
	}
	n.DSM().RegisterDiffKind(DiffKind)
	n.WriteFaultHook = rt.onWriteFault
	n.InvalidateHook = rt.onInvalidate
	return rt
}

// onWriteFault marks every schedule watching the faulted page as
// modified (the paper's protection-violation handler "sets a flag").
func (rt *Runtime) onWriteFault(page vm.PageID) {
	for _, sch := range rt.watched[page] {
		sch.modified = true
	}
}

// onInvalidate marks schedules whose indirection pages were invalidated
// by a remote write notice ("both local and remote modifications cause
// the modified function to return true").
func (rt *Runtime) onInvalidate(page vm.PageID) {
	for _, sch := range rt.watched[page] {
		sch.modified = true
	}
}

func (rt *Runtime) sched(id int) *schedule {
	sch := rt.schedules[id]
	if sch == nil {
		sch = &schedule{id: id, modified: true}
		rt.schedules[id] = sch
	}
	return sch
}

// Validate is the run-time entry point of Figure 3. It accepts any
// number of access descriptors, computes/reuses their page sets, fetches
// all invalid pages with communication aggregated per remote processor,
// and performs preemptive consistency actions (twin creation,
// write-enabling, whole-page-reduction marking).
func (rt *Runtime) Validate(descs ...Desc) {
	// Pass 1: resolve each descriptor's page set.
	pageSets := make([][]vm.PageID, len(descs))
	covered := make([]map[vm.PageID]bool, len(descs))
	var fetch []vm.PageID
	seen := map[vm.PageID]bool{}
	for i := range descs {
		d := &descs[i]
		if d.Access.full() {
			covered[i] = rt.fullyCovered(d)
		}
		var pages []vm.PageID
		switch d.Type {
		case Indirect:
			sch := rt.sched(d.Sched)
			// A changed section (the loop bounds moved, e.g. after the
			// interaction list was rebuilt with a different size) also
			// forces recomputation, independent of the modified flag.
			if !sch.computed || sch.modified || !sch.section.Equal(d.Section) {
				rt.readIndices(sch, d)
				rt.writeProtect(sch, d)
				sch.computed = true
				sch.modified = false
				sch.section = d.Section
				rt.Recomputes++
			} else {
				rt.Revalidates++
			}
			pages = sch.pages
		case Direct:
			pages = rt.sectionPages(d.Data, d.Section, []int{d.Data.Len})
		default:
			panic("core: bad descriptor type")
		}
		pageSets[i] = pages
		for _, pg := range pages {
			// A WRITE_ALL page entirely inside the section needs no
			// fetch: every byte will be overwritten. Boundary pages (and
			// all READ&WRITE_ALL pages, which are read first) fetch.
			if d.Access == WriteAll && covered[i][pg] {
				continue
			}
			if rt.n.IsInvalid(pg) && !seen[pg] {
				seen[pg] = true
				fetch = append(fetch, pg)
			}
		}
	}

	// Pass 2: fetch the diffs for every invalid page. All diff requests
	// to the same processor are aggregated into a single message.
	if len(fetch) > 0 {
		if rt.NoAggregation {
			for _, pg := range fetch {
				rt.n.FetchPages([]vm.PageID{pg}, DiffKind)
			}
		} else {
			rt.n.FetchPages(fetch, DiffKind)
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
		for _, pg := range pageSets[i] {
			if d.Access.full() && covered[i][pg] {
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
func (rt *Runtime) fullyCovered(d *Desc) map[vm.PageID]bool {
	if d.Type != Direct || len(d.Section.Dims) != 1 || d.Section.Dims[0].Stride != 1 {
		return nil
	}
	arena := rt.n.Space().Arena()
	dim := d.Section.Dims[0]
	if dim.Hi < dim.Lo {
		return nil
	}
	startB := int(d.Data.Addr(dim.Lo))
	endB := int(d.Data.Addr(dim.Hi)) + d.Data.ElemSize
	ps := arena.PageSize()
	out := map[vm.PageID]bool{}
	for pg := (startB + ps - 1) / ps; pg < endB/ps; pg++ {
		out[vm.PageID(pg)] = true
	}
	return out
}

// readIndices recomputes pages[sch] by scanning the section of the
// indirection array and collecting the pages of the data array that the
// indices touch (Figure 3's Read_indices). Multi-level chains are
// followed level by level, prefetching each level's pages aggregated.
func (rt *Runtime) readIndices(sch *schedule, d *Desc) {
	if d.Indir == nil {
		panic("core: INDIRECT descriptor without indirection array")
	}
	chain := d.Indirs
	if chain == nil {
		chain = []*Array{d.Indir}
	} else if chain[0] != d.Indir {
		panic("core: Indirs[0] must be the Indir array")
	}
	arena := rt.n.Space().Arena()
	space := rt.n.Space()
	offsets := d.Section.LinearOffsets(d.indirSizes())

	// The first indirection level is a regular section: fetch it
	// aggregated before scanning (it may have been invalidated by a
	// rebuild).
	rt.prefetchSection(chain[0], d.Section, d.indirSizes())

	if rt.Incremental && sch.refcnt != nil && len(chain) == 1 {
		rt.incrementalScan(sch, d, offsets)
		return
	}

	mark := map[vm.PageID]bool{}
	var prev []int32
	single := len(chain) == 1
	if rt.Incremental && single {
		prev = make([]int32, len(offsets))
		sch.refcnt = map[vm.PageID]int{}
	}
	scanned := int64(0)
	// Level 0: read the indices named by the section.
	idxs := make([]int32, len(offsets))
	for k, off := range offsets {
		idxs[k] = space.ReadI32(chain[0].Addr(0) + vm.Addr(off*chain[0].ElemSize))
	}
	scanned += int64(len(offsets))
	if rt.Incremental && single {
		copy(prev, idxs)
	}
	// Intermediate levels: each value indexes the next array. Prefetch
	// the touched pages of the level aggregated, then load its values.
	for lv := 1; lv < len(chain); lv++ {
		arr := chain[lv]
		lvPages := map[vm.PageID]bool{}
		for _, v := range idxs {
			first, last := arena.PageRange(arr.Addr(int(v)), arr.ElemSize)
			for pg := first; pg <= last; pg++ {
				if rt.n.IsInvalid(pg) {
					lvPages[pg] = true
				}
			}
		}
		if len(lvPages) > 0 {
			rt.n.FetchPages(sortedPages(lvPages), DiffKind)
		}
		next := make([]int32, len(idxs))
		for k, v := range idxs {
			next[k] = space.ReadI32(arr.Addr(int(v)))
		}
		idxs = next
		scanned += int64(len(idxs))
	}
	// Final level: the values index the data array.
	for _, v := range idxs {
		first, last := arena.PageRange(d.Data.Addr(int(v)), d.Data.ElemSize)
		for pg := first; pg <= last; pg++ {
			mark[pg] = true
			if rt.Incremental && single {
				sch.refcnt[pg]++
			}
		}
	}
	rt.ScanEntries += scanned
	sch.pages = sortedPages(mark)
	sch.prevIdx = prev
	rt.n.Proc().Advance(rt.ScanUSPerEntry*float64(scanned) +
		rt.PageSetUSPerPage*float64(len(sch.pages)))
}

// incrementalScan is extension S13: instead of rebuilding the page set
// from scratch, compare the current indirection values against the
// previous snapshot and adjust per-page reference counts for the entries
// that changed — the "diffing" recomputation the paper sketches but does
// not implement.
func (rt *Runtime) incrementalScan(sch *schedule, d *Desc, offsets []int) {
	arena := rt.n.Space().Arena()
	space := rt.n.Space()
	if len(offsets) != len(sch.prevIdx) {
		// Section shape changed; fall back to a full rebuild.
		sch.refcnt = nil
		rt.readIndices(sch, d)
		return
	}
	changed := 0
	for k, off := range offsets {
		idx := space.ReadI32(d.Indir.Addr(0) + vm.Addr(off*d.Indir.ElemSize))
		old := sch.prevIdx[k]
		if idx == old {
			continue
		}
		changed++
		sch.prevIdx[k] = idx
		of, ol := arena.PageRange(d.Data.Addr(int(old)), d.Data.ElemSize)
		for pg := of; pg <= ol; pg++ {
			sch.refcnt[pg]--
			if sch.refcnt[pg] == 0 {
				delete(sch.refcnt, pg)
			}
		}
		nf, nl := arena.PageRange(d.Data.Addr(int(idx)), d.Data.ElemSize)
		for pg := nf; pg <= nl; pg++ {
			sch.refcnt[pg]++
		}
	}
	rt.ScanEntries += int64(len(offsets))
	pages := make([]vm.PageID, 0, len(sch.refcnt))
	for pg := range sch.refcnt {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	sch.pages = pages
	rt.n.Proc().Advance(rt.IncrScanUSPerEntry*float64(len(offsets)) +
		rt.PageSetUSPerPage*float64(changed))
}

// writeProtect write-protects the pages holding the scanned section of
// the indirection array and registers them so a later write (local
// fault) or invalidation (remote notice) flips the schedule's modified
// flag (§3.2: "the pages in section are write protected").
func (rt *Runtime) writeProtect(sch *schedule, d *Desc) {
	// Deregister the previous watch set.
	for _, pg := range sch.watch {
		ws := rt.watched[pg]
		for i, s := range ws {
			if s == sch {
				rt.watched[pg] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
	sch.watch = sch.watch[:0]
	arena := rt.n.Space().Arena()
	space := rt.n.Space()
	pages := rt.sectionPages(d.Indir, d.Section, d.indirSizes())
	// Deeper chain levels are watched in full (their accessed subset is
	// value-dependent, so any change must trigger recomputation).
	for _, arr := range d.Indirs[min(1, len(d.Indirs)):] {
		first, last := arena.PageRange(arr.Addr(0), arr.Bytes())
		for pg := first; pg <= last; pg++ {
			pages = append(pages, pg)
		}
	}
	slices.Sort(pages)
	for _, pg := range slices.Compact(pages) {
		sch.watch = append(sch.watch, pg)
		rt.watched[pg] = append(rt.watched[pg], sch)
		if space.Page(pg).Prot() == vm.ReadWrite {
			space.Protect(pg, vm.ReadOnly)
		}
	}
}

// prefetchSection fetches (aggregated) any invalid pages of arr holding
// the section sec, linearized over sizes.
func (rt *Runtime) prefetchSection(arr *Array, sec rsd.Section, sizes []int) {
	var fetch []vm.PageID
	for _, pg := range rt.sectionPages(arr, sec, sizes) {
		if rt.n.IsInvalid(pg) {
			fetch = append(fetch, pg)
		}
	}
	if len(fetch) > 0 {
		rt.n.FetchPages(fetch, DiffKind)
	}
}

// sectionPages returns the sorted pages of arr holding the section sec,
// linearized over sizes (arr's dimensions in units of its elements). It
// walks the section's contiguous runs, which arrive in address order, so
// a page is new exactly when it lies past the last one emitted.
func (rt *Runtime) sectionPages(arr *Array, sec rsd.Section, sizes []int) []vm.PageID {
	arena := rt.n.Space().Arena()
	var out []vm.PageID
	sec.ForEachRun(sizes, func(off, n int) {
		first, last := arena.PageRange(arr.Addr(off), n*arr.ElemSize)
		if k := len(out); k > 0 && first <= out[k-1] {
			first = out[k-1] + 1
		}
		for pg := first; pg <= last; pg++ {
			out = append(out, pg)
		}
	})
	return out
}

func sortedPages(mark map[vm.PageID]bool) []vm.PageID {
	out := make([]vm.PageID, 0, len(mark))
	for pg := range mark {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
