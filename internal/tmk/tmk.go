// Package tmk implements a TreadMarks-style software distributed shared
// memory system (§2 of the paper): lazy-invalidate release consistency
// with vector timestamps, intervals, and write notices; a
// multiple-writer protocol based on twins and run-length-encoded diffs;
// page-fault-driven demand fetching of diffs; and barrier and lock
// synchronization.
//
// It runs on the simulated cluster (internal/sim) and software MMU
// (internal/vm). The augmented run-time of the paper — the Validate
// interface with aggregated prefetching — is layered on top in
// internal/core and talks to this package through Node's exported
// protocol operations (FetchPages, TwinForWrite, hooks).
package tmk

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/diff"
	"repro/internal/sim"
	"repro/internal/vm"
)

// minGap is the run-merge threshold for diff encoding.
const minGap = 8

// sim.MemStats categories (DESIGN.md §9). Page copies, twins, and
// stored diffs are charged to the owning node's processor from its own
// goroutine (deterministic program order); the notice board is a
// cluster-wide store appended to from barrier combines, so it is
// charged to the global shard (proc -1), where it only grows until
// Close and its peak is order-independent.
const (
	MemCatPages = "tmk.pages"
	MemCatTwins = "tmk.twins"
	MemCatDiffs = "tmk.diffs"
	MemCatBoard = "tmk.board"
)

// DSM is the cluster-wide shared-memory system: the image its nodes
// attach to, one Node per processor, and the centralized
// synchronization managers.
type DSM struct {
	cluster *sim.Cluster
	img     *Image
	nodes   []*Node

	board *noticeBoard
	// barReplies and barBytes are the barrier combine's reply and size
	// lists, reused every barrier (DESIGN.md §3, rule 4).
	barReplies []any
	barBytes   []int

	closed bool
	// pagesCharged is the per-node page-copy charge made at attach,
	// remembered so Close can return exactly it.
	pagesCharged int64
}

// Image is the initial contents of shared memory: the arena's layout and
// the bytes written into it before the timed run, on one writable
// Space. Once sealed it is immutable, and any number of DSMs — running
// concurrently or not — attach to it with NewFromImage, every node's
// page table aliasing its pages copy-on-write (DESIGN.md §9, "Host
// memory"). Building and sealing happen on one goroutine.
type Image struct {
	arena  *vm.Arena
	space  *vm.Space
	sealed bool
}

// NewImage creates an image with the given page size and total shared
// arena capacity in bytes, every byte zero.
func NewImage(pageSize, arenaBytes int) *Image {
	a := vm.NewArena(pageSize, arenaBytes)
	return &Image{arena: a, space: vm.NewSpace(a, vm.ReadWrite)}
}

// Space returns the writable space the initial values are written
// through. Once the image is sealed every page of it is read-only.
func (im *Image) Space() *vm.Space { return im.space }

// Alloc reserves page-aligned shared memory (the TreadMarks shared
// malloc).
func (im *Image) Alloc(size int) vm.Addr {
	im.mustBeOpen()
	return im.arena.Alloc(size)
}

// AllocUnaligned reserves shared memory with no page alignment (used to
// reproduce false-sharing-prone layouts).
func (im *Image) AllocUnaligned(size int) vm.Addr {
	im.mustBeOpen()
	return im.arena.AllocUnaligned(size)
}

func (im *Image) mustBeOpen() {
	if im.sealed {
		panic("tmk: Alloc on a sealed image (after SealInit)")
	}
}

// Seal ends the image's initialization: every allocated page is frozen
// read-only, so a write through any Space that aliases it — the image's
// own included — breaks copy-on-write instead of changing it.
func (im *Image) Seal() {
	if im.sealed {
		panic("tmk: image sealed twice")
	}
	im.sealed = true
	for p := 0; p < im.arena.NumPages(); p++ {
		im.space.Freeze(vm.PageID(p))
	}
}

// New creates a DSM over the cluster with the given page size and total
// shared arena capacity in bytes, on an image of its own: processor 0
// writes the initial values through Node(0).Space() until SealInit
// seals the image and attaches every node to it. The other nodes have
// no space before SealInit.
func New(c *sim.Cluster, pageSize, arenaBytes int) *DSM {
	img := NewImage(pageSize, arenaBytes)
	d := newDSM(c, img)
	d.nodes[0].space = img.space
	return d
}

// NewFromImage creates a DSM over the cluster attached to a sealed image,
// exactly as New, the image's allocations and writes, and SealInit
// would leave it. The image stays untouched; many DSMs may share it.
func NewFromImage(c *sim.Cluster, img *Image) *DSM {
	if !img.sealed {
		panic("tmk: NewFromImage of an unsealed image")
	}
	d := newDSM(c, img)
	d.attach()
	return d
}

func newDSM(c *sim.Cluster, img *Image) *DSM {
	nprocs := c.NProcs()
	d := &DSM{
		cluster:    c,
		img:        img,
		board:      newNoticeBoard(nprocs),
		barReplies: make([]any, nprocs),
		barBytes:   make([]int, nprocs),
	}
	for i := 0; i < nprocs; i++ {
		n := &Node{
			d:         d,
			proc:      c.Proc(i),
			vc:        NewVC(nprocs),
			seen:      make([]int32, nprocs),
			dirty:     map[vm.PageID]dirtyPage{},
			diffStore: map[vm.PageID][]*storedDiff{},
		}
		n.fetch.upTo = make([]int32, nprocs)
		n.fetch.reqs = make([]diffRequest, nprocs)
		for w := range n.fetch.reqs {
			n.fetch.reqs[w].resp = &n.fetch.diffs
		}
		n.onGrant = n.snapshotGrant
		n.barrierIn.reply = &n.barrierOut
		n.combine = n.combineBarrier
		n.proc.RegisterHandler(msgDiff, n.handleDiffRequest)
		d.nodes = append(d.nodes, n)
	}
	return d
}

// Node returns the protocol instance of processor i.
func (d *DSM) Node(i int) *Node { return d.nodes[i] }

// Alloc reserves page-aligned shared memory (the TreadMarks shared
// malloc). Must be called before SealInit, from a single goroutine.
func (d *DSM) Alloc(size int) vm.Addr { return d.img.Alloc(size) }

// SealInit ends the initialization phase: the initial image written by
// processor 0 is sealed and replicated to every node, and all pages
// become clean read-only copies. Initialization runs on the host and
// costs no simulated time or traffic; the paper likewise excludes data
// initialization and partitioning from all measurements. On the host
// the replicas are copy-on-write aliases of the now-immutable image
// (DESIGN.md §9, "Host memory"); the modeled ledger still charges every
// node a full copy. Must be called once, from a single goroutine, before
// Cluster.Run.
func (d *DSM) SealInit() {
	if d.img.sealed {
		panic("tmk: SealInit called twice")
	}
	d.img.Seal()
	d.attach()
}

// attach ends initialization on the sealed image: every node gets a
// read-only page table aliasing the image's pages, and every node is
// charged its page copies. Both SealInit and NewFromImage end here.
// Clocks, traffic and lock statistics are left as they stand; a
// measurement excludes initialization by its own window (apps.Episode).
func (d *DSM) attach() {
	numPages := d.img.arena.NumPages()
	for _, n := range d.nodes {
		n.space = vm.NewSpace(d.img.arena, vm.ReadOnly)
		n.space.SetHandler(n)
		n.pages = make([]*pageMeta, numPages)
		for p := 0; p < numPages; p++ {
			n.space.SharePageFrom(d.img.space, vm.PageID(p))
		}
	}
	// The memory allocated during initialization is exactly what the
	// machine must hold for the rest of the run.
	d.pagesCharged = int64(numPages) * int64(d.img.arena.PageSize())
	for i := range d.nodes {
		d.cluster.Mem.Alloc(i, MemCatPages, d.pagesCharged)
	}
}

// Close tears the system down for the memory ledger: page copies,
// surviving twins, retained diffs, and the notice board are freed, so
// sim.MemStats.CheckBalanced holds afterwards (peaks survive — they are
// the report). Call it after the last shared-memory access.
func (d *DSM) Close() {
	if d.closed {
		return
	}
	d.closed = true
	mem := &d.cluster.Mem
	for i, n := range d.nodes {
		mem.Free(i, MemCatPages, d.pagesCharged)
		for _, dp := range n.dirty {
			if !dp.fullWrite {
				mem.Free(i, MemCatTwins, int64(d.img.arena.PageSize()))
			}
		}
		clear(n.dirty)
		n.freeTwins = nil
		n.mu.Lock()
		mem.Free(i, MemCatDiffs, n.diffBytes)
		clear(n.diffStore)
		n.diffBytes = 0
		n.mu.Unlock()
	}
	d.board.mu.Lock()
	bb := d.board.bytes
	d.board.bytes = 0
	d.board.mu.Unlock()
	mem.Free(-1, MemCatBoard, bb)
}

type dirtyPage struct {
	twin      []byte // nil when fullWrite
	fullWrite bool   // WRITE_ALL: the whole page will be (re)written
	// owned marks a twin this node copied, which closeInterval recycles.
	// The other kind of twin is the still-shared sealed image itself
	// (see TwinForWrite), which other nodes go on reading.
	owned bool
}

// pageMeta is one node's coherence state for one page, created by
// Node.meta at the page's first protocol event: a write notice naming
// it, an interval close covering it, or MarkFullyWritten. A page
// without one has applied nothing and has nothing pending, so a fetch
// that finds none has nothing to do for it.
type pageMeta struct {
	// applied[w] is the highest interval of writer w whose modifications
	// are present in the local copy.
	applied []int32
	// pending are received-but-unapplied write notices covering this
	// page (the reason the page is invalid).
	pending []*Notice
}

// Node is one processor's protocol instance.
type Node struct {
	d     *DSM
	proc  *sim.Proc
	space *vm.Space

	vc    VC
	dirty map[vm.PageID]dirtyPage
	// pages[pg] is the coherence state of page pg, nil until its first
	// protocol event.
	pages []*pageMeta
	// freeTwins holds the owned twins of closed intervals for the next
	// write faults to reuse: at most as many as one interval dirtied.
	freeTwins [][]byte
	// fetch is FetchPages' scratch state.
	fetch fetchScratch

	// newNotices are this node's interval notices not yet posted to the
	// central board (at most one per release).
	newNotices []*Notice
	// seen[w] is the highest interval of writer w whose notice this node
	// has received — the watermark the notice board filters against.
	seen []int32
	// grantNotices and grantBytes are the notices the latest lock grant
	// carried and their wire size, filled by onGrant (snapshotGrant, bound
	// once) at the grant instant while this node is blocked in the acquire.
	grantNotices []*Notice
	grantBytes   int
	onGrant      func()
	// barrierIn and barrierOut are Barrier's contribution and reply,
	// reused every episode; combine is combineBarrier, bound once.
	barrierIn  barrierContribution
	barrierOut barrierReply
	combine    sim.CombineFunc

	mu sync.Mutex // guards diffStore against remote handler reads
	// diffStore[page] are this node's retained diffs of page, in
	// ascending interval order.
	diffStore map[vm.PageID][]*storedDiff
	diffBytes int64 // wire bytes retained in diffStore

	// Hooks used by the augmented run-time (internal/core) for
	// indirection-array change detection: InvalidateHook fires when a
	// remote write notice invalidates a page; WriteFaultHook fires on a
	// local write fault (the software equivalent of the SIGSEGV the
	// paper's write-protection produces).
	InvalidateHook func(page vm.PageID)
	WriteFaultHook func(page vm.PageID)

	// Aggregate event counters.
	DiffsCreated int64
	DiffsApplied int64
	TwinsMade    int64
}

// meta returns page's coherence state, creating it at the page's first
// protocol event.
func (n *Node) meta(page vm.PageID) *pageMeta {
	m := n.pages[page]
	if m == nil {
		m = &pageMeta{applied: make([]int32, len(n.vc))}
		n.pages[page] = m
	}
	return m
}

// Proc returns the simulated processor.
func (n *Node) Proc() *sim.Proc { return n.proc }

// Space returns the node's software-MMU view of shared memory.
func (n *Node) Space() *vm.Space { return n.space }

// DSM returns the owning system.
func (n *Node) DSM() *DSM { return n.d }

const msgDiff = "tmk.diff"

// RegisterDiffKind makes every node answer diff requests arriving under
// an additional stat category. The augmented run-time uses a separate
// category ("validate.diff") so aggregated prefetch traffic can be told
// apart from demand-fault traffic in the reported tables. Idempotent.
func (d *DSM) RegisterDiffKind(kind string) {
	for _, n := range d.nodes {
		n.proc.RegisterHandler(kind, n.handleDiffRequest)
	}
}

// HandleFault implements vm.FaultHandler: the page-fault path of the
// base TreadMarks protocol. An invalid page triggers a demand fetch of
// the missing diffs for that single page (one request/response per
// modifier — the per-page traffic the paper's Validate aggregation
// eliminates). A write fault additionally creates a twin.
func (n *Node) HandleFault(page vm.PageID, write bool) {
	cfg := n.proc.Config()
	n.proc.Advance(cfg.PageFaultUS)
	if write && n.WriteFaultHook != nil {
		n.WriteFaultHook(page)
	}
	pg := n.space.Page(page)
	if pg.Prot() == vm.NoAccess {
		n.FetchPages([]vm.PageID{page}, msgDiff)
	}
	if write {
		n.TwinForWrite(page, false)
	} else if pg.Prot() == vm.NoAccess {
		n.space.Protect(page, vm.ReadOnly)
	}
}

// MarkFullyWritten prepares a page for a WRITE_ALL access that covers
// the entire page: every byte is about to be overwritten, so any pending
// remote diffs are superseded without being fetched. The caller must
// guarantee full coverage; the per-writer applied watermarks advance to
// the node's current vector time (all known writes are covered by the
// upcoming snapshot) and the page becomes writable with no twin.
func (n *Node) MarkFullyWritten(page vm.PageID) {
	meta := n.meta(page)
	for w := range meta.applied {
		if meta.applied[w] < n.vc[w] {
			meta.applied[w] = n.vc[w]
		}
	}
	meta.pending = meta.pending[:0]
	n.TwinForWrite(page, true)
}

// TwinForWrite makes page writable, creating a twin first unless the
// page is already dirty in the current interval or fullWrite marks the
// entire page as about-to-be-overwritten (WRITE_ALL: twinning is
// skipped and a whole-page snapshot is shipped instead of a diff).
func (n *Node) TwinForWrite(page vm.PageID, fullWrite bool) {
	// A page already dirty this interval keeps its representation: a
	// full-write upgrade keeps the stronger, twin-backed one.
	if _, dirty := n.dirty[page]; dirty {
		n.space.Protect(page, vm.ReadWrite)
		return
	}
	if fullWrite {
		n.dirty[page] = dirtyPage{fullWrite: true}
	} else {
		pg := n.space.Page(page)
		twin := pg.Data()
		n.proc.Advance(n.proc.Config().TwinUSPerB * float64(len(twin)))
		// A still-shared page's bytes are immutable, and Protect below
		// gives the node its own copy to write: they are the twin as they
		// stand. Only an already-private page needs a second copy.
		owned := !pg.Shared()
		if owned {
			twin = n.copyTwin(twin)
		}
		n.dirty[page] = dirtyPage{twin: twin, owned: owned}
		n.TwinsMade++
		n.d.cluster.Mem.Alloc(n.proc.ID(), MemCatTwins, int64(len(twin)))
	}
	n.space.Protect(page, vm.ReadWrite)
}

// copyTwin returns a private copy of page, in a recycled buffer when one
// is free.
func (n *Node) copyTwin(page []byte) []byte {
	if last := len(n.freeTwins) - 1; last >= 0 {
		twin := n.freeTwins[last]
		n.freeTwins = n.freeTwins[:last]
		copy(twin, page)
		return twin
	}
	return diff.Twin(page)
}

// IsInvalid reports whether the node's copy of page is invalid.
func (n *Node) IsInvalid(page vm.PageID) bool {
	return n.space.Page(page).Prot() == vm.NoAccess
}

// closeInterval ends the current interval at a release point: for every
// dirty page a diff (or whole-page snapshot) is created and stored, the
// page reverts to read-only so the next interval re-twins, and a write
// notice describing the interval is queued for the notice board.
func (n *Node) closeInterval() {
	if len(n.dirty) == 0 {
		return
	}
	cfg := n.proc.Config()
	me := n.proc.ID()
	n.vc[me]++
	vc := n.vc.Clone()
	nt := &Notice{Proc: me, Interval: n.vc[me], VC: vc, vcSum: vc.Sum()}
	// The interval's diffs are one block, in page order, so the notice —
	// and everything that flows from it — has one canonical layout. Byte
	// counts accumulate as integers and convert to time once, so the
	// result is independent of iteration order (floating-point addition
	// is not associative).
	nt.diffs = make([]storedDiff, 0, len(n.dirty))
	for page := range n.dirty {
		nt.diffs = append(nt.diffs, storedDiff{nt: nt, page: page})
	}
	slices.SortFunc(nt.diffs, func(a, b storedDiff) int { return cmp.Compare(a.page, b.page) })
	var snapBytes, scanBytes int
	var twinFreed, diffStored int64
	n.mu.Lock()
	for i := range nt.diffs {
		sd := &nt.diffs[i]
		page := sd.page
		dp := n.dirty[page]
		if dp.fullWrite {
			// The snapshot is the page's own bytes, frozen: the next
			// store to the page copies them instead.
			sd.data = n.space.Freeze(page)
			sd.full = true
			sd.dataB = int32(diff.WireHeaderB + len(sd.data))
			snapBytes += len(sd.data)
			nt.nFull++
		} else {
			cur := n.space.Page(page).Data()
			d := diff.Encode(dp.twin, cur, minGap)
			sd.data = d
			sd.dataB = int32(d.WireBytes())
			scanBytes += len(cur)
			twinFreed += int64(len(cur)) // twin discarded below
			if dp.owned {
				n.freeTwins = append(n.freeTwins, dp.twin)
			}
		}
		n.diffStore[page] = append(n.diffStore[page], sd)
		diffStored += int64(sd.dataB)
		n.DiffsCreated++
		n.meta(page).applied[me] = n.vc[me]
		n.space.Protect(page, vm.ReadOnly)
	}
	n.diffBytes += diffStored
	n.mu.Unlock()
	n.proc.Advance(cfg.TwinUSPerB*float64(snapBytes) + cfg.DiffUSPerB*float64(scanBytes))
	clear(n.dirty)
	n.d.cluster.Mem.Free(me, MemCatTwins, twinFreed)
	n.d.cluster.Mem.Alloc(me, MemCatDiffs, diffStored)
	n.newNotices = append(n.newNotices, nt)
}

// applyNotices processes write notices received at an acquire: merging
// vector time, invalidating the named pages, and recording the pending
// diffs to fetch on the next access.
func (n *Node) applyNotices(nts []*Notice) {
	me := n.proc.ID()
	for _, nt := range nts {
		if nt.Proc == me {
			continue
		}
		n.vc.Join(nt.VC)
		for i := range nt.diffs {
			page := nt.diffs[i].page
			meta := n.meta(page)
			if nt.Interval <= meta.applied[nt.Proc] {
				continue
			}
			already := false
			for _, p := range meta.pending {
				if p.Proc == nt.Proc && p.Interval == nt.Interval {
					already = true
					break
				}
			}
			if already {
				continue
			}
			meta.pending = append(meta.pending, nt)
			if n.space.Page(page).Prot() != vm.NoAccess {
				// Invalidate; a dirty page keeps its twin and local
				// modifications (multiple-writer protocol) and will
				// merge remote diffs on the next access fault.
				n.space.Protect(page, vm.NoAccess)
			}
			if n.InvalidateHook != nil {
				n.InvalidateHook(page)
			}
		}
	}
}

// pruneSuperseded drops pending notices that are covered by a causally
// later whole-page write of the same page: the full writer's snapshot
// includes every write it had seen, so those diffs need not be fetched.
// This is what keeps the data volume of the pipelined reduction at one
// page per fetch instead of a stack of overlapping diffs (§5.1).
func pruneSuperseded(pending []*Notice, page vm.PageID) []*Notice {
	if len(pending) < 2 {
		return pending
	}
	keep := pending[:0]
	for _, n1 := range pending {
		covered := false
		for _, n2 := range pending {
			if n2 != n1 && n2.IsFull(page) && n1.VC.LEq(n2.VC) {
				covered = true
				break
			}
		}
		if !covered {
			keep = append(keep, n1)
		}
	}
	return keep
}

// pageRequest asks one writer for its diffs of one page in the interval
// range (After, UpTo].
type pageRequest struct {
	Page  vm.PageID
	After int32
	UpTo  int32
}

// diffRequest is the request of one diff exchange. CallMulti runs the
// target's handler synchronously on the requester's goroutine, so the
// request carries the requester's own response buffer and the handler
// appends the stored diffs to it directly.
type diffRequest struct {
	pages []pageRequest
	resp  *[]*storedDiff
}

// fetchScratch is the state FetchPages reuses from call to call.
// FetchPages runs only on the node's own goroutine and never re-enters,
// so one instance per node suffices. Everything is empty between calls.
type fetchScratch struct {
	upTo    []int32       // [writer] highest pending interval for the page at hand, 0 = none
	reqs    []diffRequest // [writer] request under construction, pages in argument order
	writers []int         // writers with a non-empty request
	specs   []sim.CallSpec
	diffs   []*storedDiff // every response of the exchange, flat
}

// FetchPages brings every page in pages up to date: it determines the
// missing diffs from the pending write notices, requests them — all
// requests to the same writer aggregated into a single message exchange,
// overlapped across writers — applies them in causal order, and leaves
// each page valid (read-only if it was invalid and clean). This is the
// engine behind both the demand fault path (one page) and Validate's
// aggregated prefetch (many pages). The stat category is kind.
func (n *Node) FetchPages(pages []vm.PageID, kind string) {
	cfg := n.proc.Config()
	f := &n.fetch
	// Group needed (page, interval-range) pairs by writer.
	for _, page := range pages {
		meta := n.pages[page]
		if meta != nil {
			meta.pending = pruneSuperseded(meta.pending, page)
		}
		if meta == nil || len(meta.pending) == 0 {
			if n.space.Page(page).Prot() == vm.NoAccess {
				n.space.Protect(page, vm.ReadOnly)
			}
			continue
		}
		for _, nt := range meta.pending {
			f.upTo[nt.Proc] = max(f.upTo[nt.Proc], nt.Interval)
		}
		for _, nt := range meta.pending {
			w := nt.Proc
			hi := f.upTo[w]
			if hi == 0 {
				continue // w's request for this page is already queued
			}
			f.upTo[w] = 0
			if len(f.reqs[w].pages) == 0 {
				f.writers = append(f.writers, w)
			}
			f.reqs[w].pages = append(f.reqs[w].pages, pageRequest{
				Page: page, After: meta.applied[w], UpTo: hi,
			})
		}
	}
	if len(f.writers) > 0 {
		// One spec per writer, in writer-id order. The order is part of
		// the simulated result: under arrival jitter each exchange draws
		// its delay from the caller's next sequence number.
		slices.Sort(f.writers)
		for _, w := range f.writers {
			f.specs = append(f.specs, sim.CallSpec{
				Target:   w,
				Kind:     kind,
				Req:      &f.reqs[w],
				ReqBytes: 12 * len(f.reqs[w].pages),
			})
		}
		n.proc.CallMulti(f.specs)

		// Apply page by page, each page's diffs in causal order.
		ds := f.diffs
		slices.SortFunc(ds, compareCausal)
		var applyBytes int
		for lo := 0; lo < len(ds); {
			page := ds[lo].page
			meta := n.pages[page] // pending notices named it, so it exists
			// A whole-page snapshot (WRITE_ALL) supersedes every diff
			// its writer had already applied; pick the causally latest
			// (ties broken by writer id and interval).
			hi, snap := lo, -1
			for ; hi < len(ds) && ds[hi].page == page; hi++ {
				if ds[hi].full {
					snap = hi // last full in causal order wins
				}
			}
			for i := lo; i < hi; i++ {
				sd := ds[i]
				nt := sd.nt
				if snap >= 0 && i != snap && nt.Interval <= ds[snap].nt.VC[nt.Proc] {
					// Covered by the snapshot.
					continue
				}
				n.install(page, sd)
				applyBytes += int(sd.dataB)
				n.DiffsApplied++
				if meta.applied[nt.Proc] < nt.Interval {
					meta.applied[nt.Proc] = nt.Interval
				}
				if sd.full {
					// Snapshot carries every write its writer had seen.
					for w2, iv := range nt.VC {
						if meta.applied[w2] < iv {
							meta.applied[w2] = iv
						}
					}
				}
			}
			lo = hi
		}
		n.proc.Advance(cfg.ApplyUSPerB * float64(applyBytes))

		// Empty the scratch state; dropping the diff pointers leaves each
		// writer's store their only holder, so Close frees them on the host.
		for _, w := range f.writers {
			f.reqs[w].pages = f.reqs[w].pages[:0]
		}
		f.writers = f.writers[:0]
		f.specs = f.specs[:0]
		clear(ds)
		f.diffs = ds[:0]
	}
	// Clear satisfied pending notices and revalidate.
	for _, page := range pages {
		if meta := n.pages[page]; meta != nil {
			keep := meta.pending[:0]
			for _, nt := range meta.pending {
				if nt.Interval > meta.applied[nt.Proc] {
					keep = append(keep, nt)
				}
			}
			meta.pending = keep
			if len(keep) > 0 {
				continue
			}
		}
		if n.space.Page(page).Prot() == vm.NoAccess {
			if _, dirtyHere := n.dirty[page]; dirtyHere {
				n.space.Protect(page, vm.ReadWrite)
			} else {
				n.space.Protect(page, vm.ReadOnly)
			}
		}
	}
}

// install brings one fetched diff into the local copy of page. A
// whole-page snapshot replaces the bytes by aliasing the writer's frozen
// page, unless the page is writable (dirty), which must stay private and
// copies it.
func (n *Node) install(page vm.PageID, sd *storedDiff) {
	switch {
	case !sd.full:
		diff.Diff(sd.data).Apply(n.space.MutableData(page))
	case n.space.Page(page).Prot() != vm.ReadWrite:
		n.space.Alias(page, sd.data)
	default:
		copy(n.space.MutableData(page), sd.data)
	}
}

// handleDiffRequest services a diff fetch on the writer side: it looks
// up the stored diffs for each requested page and interval range and
// ships them back, all in one response message. It runs on the
// requester's goroutine: the requester's buffer is private to it, the
// writer's diffStore is read under its mutex.
func (n *Node) handleDiffRequest(from int, req any) (any, int, float64) {
	r := req.(*diffRequest)
	out := *r.resp
	first := len(out)
	bytes := 0
	n.mu.Lock()
	for _, pr := range r.pages {
		stored := n.diffStore[pr.Page]
		i, _ := slices.BinarySearchFunc(stored, pr.After+1, func(sd *storedDiff, iv int32) int {
			return cmp.Compare(sd.nt.Interval, iv)
		})
		for ; i < len(stored) && stored[i].nt.Interval <= pr.UpTo; i++ {
			out = append(out, stored[i])
			bytes += stored[i].wireBytes()
		}
	}
	n.mu.Unlock()
	*r.resp = out
	handlerUS := 4 + 0.5*float64(len(out)-first) // lookup + packaging
	return nil, bytes, handlerUS
}

func (n *Node) String() string {
	return fmt.Sprintf("tmk.Node(p%d, vc=%v)", n.proc.ID(), n.vc)
}
