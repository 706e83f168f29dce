// Translation tables (§4): the partitioner returns an irregular
// assignment of array elements to processors; the translation table
// records, for each global element, its home processor and local offset.
// Depending on storage requirements the table is replicated, distributed
// (block by global index), or paged. A non-replicated table makes the
// inspector communicate — exactly the effect the paper observes on
// moldyn, where memory pressure forced the distributed organization and
// the inspector exchanged 85 MB in 878 messages.
//
// Per-processor table storage is charged to the simulated-memory ledger
// (sim.MemStats, category "chaos.table"): the full table under
// Replicated, the home segment under Distributed, and the segment plus
// whatever pages are currently cached under Paged. The Paged cache can
// be bounded (CachePages) to model a per-processor memory budget: fills
// past the bound evict the oldest cached page (FIFO — deterministic,
// since each processor's cache is touched only by its own goroutine in
// program order), and the evicted page's re-fetch traffic flows through
// the ordinary cost model below. internal/mem turns a byte budget into
// the organization + bound choice.
package chaos

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/sim"
)

// TableKind selects the translation-table organization.
type TableKind int

const (
	// Replicated: every processor holds the full table; lookups are local.
	Replicated TableKind = iota
	// Distributed: the table is block-distributed by global index;
	// lookups of remote segments are batched into one exchange per
	// segment owner.
	Distributed
	// Paged: like Distributed, but fetched table pages are cached, so
	// only cold pages communicate (and, with a bounded cache, evicted
	// ones again).
	Paged
)

func (k TableKind) String() string {
	switch k {
	case Replicated:
		return "replicated"
	case Distributed:
		return "distributed"
	case Paged:
		return "paged"
	}
	return fmt.Sprintf("TableKind(%d)", int(k))
}

// Loc is a translation-table entry: home processor and local offset.
type Loc struct {
	Proc int
	Off  int32
}

// TablePageEntries is the granularity of the Paged organization.
const TablePageEntries = 1024

// TableEntryBytes is the modeled size of one table entry on the wire
// and in storage (packed home processor + local offset).
const TableEntryBytes = 8

// MemCatTable is the sim.MemStats category for translation-table
// storage (segments, replicas, and cached pages).
const MemCatTable = "chaos.table"

// TransTable resolves global element indices to (processor, offset)
// pairs under a chosen organization, charging the communication a real
// CHAOS run would incur.
type TransTable struct {
	kind   TableKind
	n      int
	owner  []int
	local  []int32
	nprocs int
	seg    uint32 // entries per table segment (Distributed/Paged)

	// cached[p] marks table pages processor p has cached (Paged mode);
	// fifo[p] remembers their fill order for eviction. Each processor
	// touches only its own row, from its own goroutine.
	cached [][]bool
	fifo   [][]int

	// charged[p] marks that processor p's base storage has been charged
	// to the memory ledger (done lazily at its first lookup, when the
	// cluster is known).
	charged []bool

	// remote[p*nprocs+q] counts the entries processor p requests from
	// segment owner q: chargeLookups' scratch, zero between calls.
	remote []int

	// CachePages bounds the per-processor cached-page count in Paged
	// mode; 0 means unbounded (the historical behavior).
	CachePages int

	// Cost model (microseconds).
	LookupUS float64
}

// NewTransTable builds the table for a partition. The underlying data is
// stored once (the simulation can always resolve locally); the kind
// controls the *charged* communication and storage.
func NewTransTable(part *Partition, kind TableKind) *TransTable {
	local, _ := Remap(part)
	t := &TransTable{
		kind:     kind,
		n:        len(part.Owner),
		owner:    part.Owner,
		local:    local,
		nprocs:   part.NProcs,
		seg:      uint32((len(part.Owner) + part.NProcs - 1) / part.NProcs),
		charged:  make([]bool, part.NProcs),
		remote:   make([]int, part.NProcs*part.NProcs),
		LookupUS: 0.12,
	}
	if kind == Paged {
		pages := (t.n + TablePageEntries - 1) / TablePageEntries
		t.cached = make([][]bool, part.NProcs)
		t.fifo = make([][]int, part.NProcs)
		for p := range t.cached {
			t.cached[p] = make([]bool, pages)
		}
	}
	return t
}

// N returns the number of elements.
func (t *TransTable) N() int { return t.n }

// segmentOwner returns the processor holding global index g's table
// entry under the Distributed/Paged organizations.
func (t *TransTable) segmentOwner(g int) int {
	// blockOwner(g, t.n, t.nprocs), with the segment size computed once
	// and a 32-bit divide (indices are int32 throughout).
	return int(uint32(g) / t.seg)
}

// StorageBytes returns the modeled per-processor table storage of
// processor p, excluding any cached pages: the full table under
// Replicated, the home segment otherwise.
func (t *TransTable) StorageBytes(p int) int64 {
	if t.kind == Replicated {
		return int64(t.n) * TableEntryBytes
	}
	lo, hi := BlockRange(t.n, t.nprocs, p)
	return int64(hi-lo) * TableEntryBytes
}

// pageBytes returns the storage of table page pg (the last page may be
// partial).
func (t *TransTable) pageBytes(pg int) int64 {
	entries := TablePageEntries
	if rem := t.n - pg*TablePageEntries; rem < entries {
		entries = rem
	}
	return int64(entries) * TableEntryBytes
}

// chargeStorage lazily charges processor p's base table storage at its
// first lookup (the table does not know the cluster before then).
func (t *TransTable) chargeStorage(p *sim.Proc) {
	if t.charged[p.ID()] {
		return
	}
	t.charged[p.ID()] = true
	p.Cluster().Mem.Alloc(p.ID(), MemCatTable, t.StorageBytes(p.ID()))
}

// ReleaseMem returns every charged table byte to the ledger (base
// storage and cached pages) — the teardown counterpart of the lazy
// charges, so MemStats.CheckBalanced holds after a run.
func (t *TransTable) ReleaseMem(c *sim.Cluster) {
	for p := range t.charged {
		if !t.charged[p] {
			continue
		}
		t.charged[p] = false
		c.Mem.Free(p, MemCatTable, t.StorageBytes(p))
		if t.kind == Paged {
			for _, pg := range t.fifo[p] {
				c.Mem.Free(p, MemCatTable, t.pageBytes(pg))
			}
			t.fifo[p] = nil
			for pg := range t.cached[p] {
				t.cached[p][pg] = false
			}
		}
	}
}

// LookupLocal resolves indices with no communication or time charges
// (used when the caller already paid for the translation).
func (t *TransTable) LookupLocal(globals []int) []Loc {
	out := make([]Loc, len(globals))
	for i, g := range globals {
		out[i] = Loc{Proc: t.owner[g], Off: t.local[g]}
	}
	return out
}

// LookupBatch resolves the given global indices for processor p,
// charging lookup compute and — for non-replicated tables — the batched
// request/response exchanges with remote segment owners. Traffic is
// counted under "chaos.ttable".
func (t *TransTable) LookupBatch(p *sim.Proc, globals []int) []Loc {
	t.chargeLookups(p, slices.Values(globals))
	return t.LookupLocal(globals)
}

// chargeLookups charges processor p for translating the indices refs
// yields, in order, exactly as LookupBatch does, without building the
// result: the cost of a lookup does not depend on what it returns.
func (t *TransTable) chargeLookups(p *sim.Proc, refs iter.Seq[int]) {
	me := p.ID()
	t.chargeStorage(p)
	remote := t.remote[me*t.nprocs : (me+1)*t.nprocs]
	nrefs := 0
	for g := range refs {
		nrefs++
		switch t.kind {
		case Replicated:
			// Local.
		case Distributed:
			if q := t.segmentOwner(g); q != me {
				remote[q]++
			}
		case Paged:
			page := g / TablePageEntries
			if q := t.segmentOwner(g); q != me && !t.cached[me][page] {
				t.cachePage(p, page)
				remote[q] += TablePageEntries // whole page shipped
			}
		}
	}
	p.Advance(t.LookupUS * float64(nrefs))
	cfg := p.Config()
	cl := p.Cluster()
	done := p.Clock()
	t0 := done
	var msgs, bytes int64
	for q, entries := range remote {
		if entries == 0 {
			continue
		}
		remote[q] = 0
		reqB := TableEntryBytes * entries
		respB := TableEntryBytes * entries
		if t.kind == Paged {
			reqB = TableEntryBytes * (entries / TablePageEntries)
		}
		rtt := cl.LinkLatencyUS(me, q) + cl.LinkXferUS(me, q, reqB) +
			0.05*float64(entries)*cl.CPUFactor(q) + // segment-owner lookup, at the owner's speed
			cl.LinkLatencyUS(q, me) + cl.LinkXferUS(q, me, respB)
		if t0+rtt > done {
			done = t0 + rtt
		}
		msgs += cfg.Frags(reqB) + cfg.Frags(respB)
		bytes += cfg.WireBytes(reqB) + cfg.WireBytes(respB)
	}
	if msgs > 0 {
		p.AdvanceTo(done)
		cl.Stats.CountP(me, "chaos.ttable", msgs, bytes)
	}
}

// cachePage records that processor p now caches table page pg, charging
// its storage and — when the cache is bounded — evicting the oldest
// cached page first. The evicted page re-communicates on its next
// touch, which is how a too-small budget turns into inspector traffic.
func (t *TransTable) cachePage(p *sim.Proc, pg int) {
	me := p.ID()
	if t.CachePages > 0 && len(t.fifo[me]) >= t.CachePages {
		old := t.fifo[me][0]
		t.fifo[me] = t.fifo[me][1:]
		t.cached[me][old] = false
		p.Cluster().Mem.Free(me, MemCatTable, t.pageBytes(old))
	}
	t.cached[me][pg] = true
	t.fifo[me] = append(t.fifo[me], pg)
	p.Cluster().Mem.Alloc(me, MemCatTable, t.pageBytes(pg))
}
