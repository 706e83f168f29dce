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
	"fmt"
	"sort"
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

// DSM is the cluster-wide shared-memory system: the arena, one Node per
// processor, and the centralized synchronization managers.
type DSM struct {
	cluster *sim.Cluster
	arena   *vm.Arena
	nodes   []*Node

	board *noticeBoard

	// GCThresholdBytes bounds the consistency data (stored diffs) the
	// cluster retains. When the total crosses the threshold, the next
	// barrier triggers a garbage collection: every processor brings its
	// invalid pages current and all stored diffs are discarded —
	// TreadMarks' flush-validate GC. Zero disables collection (runs are
	// bounded anyway).
	GCThresholdBytes int64

	sealed bool
	closed bool
	// pagesCharged is the per-node page-copy charge made at SealInit,
	// remembered so Close can return exactly it.
	pagesCharged int64
	// boardBytes is the notice-board storage charged to the global mem
	// shard so far; guarded by board.mu.
	boardBytes int64
}

// New creates a DSM over the cluster with the given page size and total
// shared arena capacity in bytes.
func New(c *sim.Cluster, pageSize, arenaBytes int) *DSM {
	d := &DSM{
		cluster: c,
		arena:   vm.NewArena(pageSize, arenaBytes),
		board:   newNoticeBoard(c.NProcs()),
	}
	for i := 0; i < c.NProcs(); i++ {
		n := &Node{
			d:         d,
			proc:      c.Proc(i),
			vc:        NewVC(c.NProcs()),
			diffStore: map[diffKey]*storedDiff{},
			dirty:     map[vm.PageID]*dirtyPage{},
		}
		// Proc 0 initializes shared data before SealInit; give it write
		// access (and so the one private image), everyone else starts
		// read-only on the zero page (they will share the initial image
		// at SealInit).
		prot := vm.ReadOnly
		if i == 0 {
			prot = vm.ReadWrite
		}
		n.space = vm.NewSpace(d.arena, prot)
		n.space.SetHandler(n)
		n.proc.RegisterHandler(msgDiff, n.handleDiffRequest)
		n.proc.RegisterHandler(msgGC, n.handleDiffRequest)
		d.nodes = append(d.nodes, n)
	}
	return d
}

// Cluster returns the underlying simulated cluster.
func (d *DSM) Cluster() *sim.Cluster { return d.cluster }

// Arena returns the shared address space geometry.
func (d *DSM) Arena() *vm.Arena { return d.arena }

// Node returns the protocol instance of processor i.
func (d *DSM) Node(i int) *Node { return d.nodes[i] }

// Alloc reserves page-aligned shared memory (the TreadMarks shared
// malloc). Must be called before SealInit, from a single goroutine.
func (d *DSM) Alloc(size int) vm.Addr {
	if d.sealed {
		panic("tmk: Alloc after SealInit")
	}
	return d.arena.Alloc(size)
}

// AllocUnaligned reserves shared memory with no page alignment (used to
// reproduce false-sharing-prone layouts).
func (d *DSM) AllocUnaligned(size int) vm.Addr {
	if d.sealed {
		panic("tmk: AllocUnaligned after SealInit")
	}
	return d.arena.AllocUnaligned(size)
}

// SealInit ends the (untimed, unmeasured) initialization phase: the
// initial image written by processor 0 is replicated to every node, all
// pages become clean read-only copies, and clocks and traffic statistics
// are reset. The paper likewise excludes data initialization and
// partitioning from all measurements. On the host the replicas are
// copy-on-write aliases of processor 0's now-immutable image (DESIGN.md
// §9, "Host memory"); the modeled ledger still charges every node a full
// copy. Must be called once, from a single goroutine, before Cluster.Run.
func (d *DSM) SealInit() {
	if d.sealed {
		panic("tmk: SealInit called twice")
	}
	d.sealed = true
	n0 := d.nodes[0]
	if len(n0.dirty) != 0 {
		panic("tmk: unexpected twins during initialization")
	}
	numPages := d.arena.NumPages()
	nprocs := d.cluster.NProcs()
	for _, n := range d.nodes { // n0 first: its pages are sealed before they are shared
		n.pages = make([]pageMeta, numPages)
		applied := make([]int32, numPages*nprocs)
		for p := 0; p < numPages; p++ {
			n.pages[p].applied = applied[p*nprocs : (p+1)*nprocs : (p+1)*nprocs]
			n.space.Protect(vm.PageID(p), vm.ReadOnly)
			if n != n0 {
				n.space.SharePageFrom(n0.space, vm.PageID(p))
			}
		}
		n.space.ReadFaults = 0
		n.space.WriteFaults = 0
	}
	d.cluster.ResetClocks()
	d.cluster.Stats.Reset()
	d.cluster.Sync.Reset()
	// Charge every node's page copies. The footprint ledger is NOT
	// reset here: unlike traffic, the memory allocated during
	// initialization is exactly what the machine must hold for the rest
	// of the run.
	d.pagesCharged = int64(numPages) * int64(d.arena.PageSize())
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
				mem.Free(i, MemCatTwins, int64(d.arena.PageSize()))
			}
		}
		n.dirty = map[vm.PageID]*dirtyPage{}
		n.mu.Lock()
		mem.Free(i, MemCatDiffs, n.diffBytes)
		n.diffStore = map[diffKey]*storedDiff{}
		n.diffBytes = 0
		n.mu.Unlock()
	}
	d.board.mu.Lock()
	bb := d.boardBytes
	d.boardBytes = 0
	d.board.mu.Unlock()
	mem.Free(-1, MemCatBoard, bb)
}

type diffKey struct {
	page     vm.PageID
	interval int32
}

type dirtyPage struct {
	twin      []byte // nil when fullWrite
	fullWrite bool   // WRITE_ALL: the whole page will be (re)written
}

// pageMeta is one node's coherence state for one page.
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
	dirty map[vm.PageID]*dirtyPage
	pages []pageMeta

	// newNotices are this node's interval notices not yet posted to the
	// central board (at most one per release).
	newNotices []*Notice
	// seen[w] is the highest interval of writer w whose notice this node
	// has received — the watermark the notice board filters against.
	seen []int32

	mu        sync.Mutex // guards diffStore against remote handler reads
	diffStore map[diffKey]*storedDiff
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
	GCs          int64
}

// DiffStoreBytes returns the wire bytes of retained diffs.
func (n *Node) DiffStoreBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.diffBytes
}

// Proc returns the simulated processor.
func (n *Node) Proc() *sim.Proc { return n.proc }

// Space returns the node's software-MMU view of shared memory.
func (n *Node) Space() *vm.Space { return n.space }

// VCNow returns a copy of the node's current vector time.
func (n *Node) VCNow() VC { return n.vc.Clone() }

// DSM returns the owning system.
func (n *Node) DSM() *DSM { return n.d }

const (
	msgDiff = "tmk.diff"
	msgGC   = "tmk.gc"
)

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
	meta := &n.pages[page]
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
		n.dirty[page] = &dirtyPage{fullWrite: true}
	} else {
		pg := n.space.Page(page)
		twin := pg.Data()
		n.proc.Advance(n.proc.Config().TwinUSPerB * float64(len(twin)))
		// A still-shared page's bytes are immutable, and Protect below
		// gives the node its own copy to write: they are the twin as they
		// stand. Only an already-private page needs a second copy.
		if !pg.Shared() {
			twin = diff.Twin(twin)
		}
		n.dirty[page] = &dirtyPage{twin: twin}
		n.TwinsMade++
		n.d.cluster.Mem.Alloc(n.proc.ID(), MemCatTwins, int64(len(twin)))
	}
	n.space.Protect(page, vm.ReadWrite)
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
	nt := &Notice{Proc: me, Interval: n.vc[me], VC: n.vc.Clone()}
	// Byte counts accumulate as integers and convert to time once, so
	// the result is independent of iteration order (floating-point
	// addition is not associative). The dirty set is still drained in
	// sorted page order so the notice's page list — and everything that
	// flows from it — has one canonical layout.
	dirtyPages := make([]vm.PageID, 0, len(n.dirty))
	for page := range n.dirty {
		dirtyPages = append(dirtyPages, page)
	}
	sort.Slice(dirtyPages, func(i, j int) bool { return dirtyPages[i] < dirtyPages[j] })
	var snapBytes, scanBytes int
	var twinFreed, diffStored int64
	n.mu.Lock()
	for _, page := range dirtyPages {
		dp := n.dirty[page]
		pg := n.space.Page(page)
		var d diff.Diff
		full := false
		if dp.fullWrite {
			d = diff.FullPage(pg.Data())
			full = true
			snapBytes += len(pg.Data())
		} else {
			d = diff.Encode(dp.twin, pg.Data(), minGap)
			scanBytes += len(pg.Data())
			twinFreed += int64(len(pg.Data())) // twin discarded below
		}
		n.diffStore[diffKey{page, n.vc[me]}] = &storedDiff{
			page: page, proc: me, interval: n.vc[me], vc: nt.VC, full: full, d: d,
		}
		n.diffBytes += int64(d.WireBytes())
		diffStored += int64(d.WireBytes())
		n.DiffsCreated++
		nt.Pages = append(nt.Pages, page)
		if full {
			nt.FullPages = append(nt.FullPages, page)
		}
		n.pages[page].applied[me] = n.vc[me]
		n.space.Protect(page, vm.ReadOnly)
	}
	n.mu.Unlock()
	n.proc.Advance(cfg.TwinUSPerB*float64(snapBytes) + cfg.DiffUSPerB*float64(scanBytes))
	n.dirty = map[vm.PageID]*dirtyPage{}
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
		for _, page := range nt.Pages {
			meta := &n.pages[page]
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

type diffRequest struct {
	Pages []pageRequest
}

type diffResponse struct {
	Diffs []WireDiff
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
	// Group needed (page, interval-range) pairs by writer.
	perWriter := map[int][]pageRequest{}
	for _, page := range pages {
		meta := &n.pages[page]
		meta.pending = pruneSuperseded(meta.pending, page)
		if len(meta.pending) == 0 {
			if n.space.Page(page).Prot() == vm.NoAccess {
				n.space.Protect(page, vm.ReadOnly)
			}
			continue
		}
		upTo := map[int]int32{}
		for _, nt := range meta.pending {
			if nt.Interval > upTo[nt.Proc] {
				upTo[nt.Proc] = nt.Interval
			}
		}
		for w, hi := range upTo {
			perWriter[w] = append(perWriter[w], pageRequest{
				Page: page, After: meta.applied[w], UpTo: hi,
			})
		}
	}
	if len(perWriter) > 0 {
		// One spec per writer, in writer-id order (map iteration order
		// would still be correct — responses are keyed by page — but a
		// canonical order keeps the exchange reproducible to a reader).
		writers := make([]int, 0, len(perWriter))
		for w := range perWriter {
			writers = append(writers, w)
		}
		sort.Ints(writers)
		specs := make([]sim.CallSpec, 0, len(writers))
		for _, w := range writers {
			reqs := perWriter[w]
			specs = append(specs, sim.CallSpec{
				Target:   w,
				Kind:     kind,
				Req:      &diffRequest{Pages: reqs},
				ReqBytes: 12 * len(reqs),
			})
		}
		resps := n.proc.CallMulti(specs)

		// Collect diffs per page across all responses.
		byPage := map[vm.PageID][]WireDiff{}
		for _, r := range resps {
			for _, wd := range r.(*diffResponse).Diffs {
				byPage[wd.Page] = append(byPage[wd.Page], wd)
			}
		}
		var applyBytes int
		for page, ds := range byPage {
			meta := &n.pages[page]
			// A whole-page snapshot (WRITE_ALL) supersedes every diff
			// its writer had already applied; pick the causally latest
			// (ties broken by writer id and interval).
			sortDiffsCausal(ds)
			var snap *WireDiff
			for i := range ds {
				if ds[i].Full {
					snap = &ds[i] // last Full in causal order wins
				}
			}
			for i := range ds {
				wd := &ds[i]
				if snap != nil && wd != snap && wd.Interval <= snap.VC[wd.Proc] {
					// Covered by the snapshot.
					continue
				}
				wd.D.Apply(n.space.MutableData(page))
				applyBytes += wd.D.WireBytes()
				n.DiffsApplied++
				if meta.applied[wd.Proc] < wd.Interval {
					meta.applied[wd.Proc] = wd.Interval
				}
				if wd.Full {
					// Snapshot carries every write its writer had seen.
					for w2, iv := range wd.VC {
						if meta.applied[w2] < iv {
							meta.applied[w2] = iv
						}
					}
				}
			}
		}
		n.proc.Advance(cfg.ApplyUSPerB * float64(applyBytes))
	}
	// Clear satisfied pending notices and revalidate.
	for _, page := range pages {
		meta := &n.pages[page]
		keep := meta.pending[:0]
		for _, nt := range meta.pending {
			if nt.Interval > meta.applied[nt.Proc] {
				keep = append(keep, nt)
			}
		}
		meta.pending = keep
		if len(meta.pending) == 0 && n.space.Page(page).Prot() == vm.NoAccess {
			if _, dirtyHere := n.dirty[page]; dirtyHere {
				n.space.Protect(page, vm.ReadWrite)
			} else {
				n.space.Protect(page, vm.ReadOnly)
			}
		}
	}
}

// handleDiffRequest services a diff fetch on the writer side: it looks
// up the stored diffs for each requested page and interval range and
// ships them back, all in one response message.
func (n *Node) handleDiffRequest(from int, req any) (any, int, float64) {
	r := req.(*diffRequest)
	resp := &diffResponse{}
	bytes := 0
	n.mu.Lock()
	for _, pr := range r.Pages {
		for iv := pr.After + 1; iv <= pr.UpTo; iv++ {
			sd, ok := n.diffStore[diffKey{pr.Page, iv}]
			if !ok {
				continue // this interval did not touch the page
			}
			wd := WireDiff{
				Page: sd.page, Proc: sd.proc, Interval: sd.interval,
				VC: sd.vc, Full: sd.full, D: sd.d,
			}
			resp.Diffs = append(resp.Diffs, wd)
			bytes += wd.wireBytes()
		}
	}
	n.mu.Unlock()
	handlerUS := 4 + 0.5*float64(len(resp.Diffs)) // lookup + packaging
	return resp, bytes, handlerUS
}

func (n *Node) String() string {
	return fmt.Sprintf("tmk.Node(p%d, vc=%v)", n.proc.ID(), n.vc)
}
