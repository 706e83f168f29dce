// Simulated-memory statistics: per-processor accounting of what each
// runtime's data structures would occupy on the modeled machine —
// CHAOS data arrays, ghost regions, inspector hash tables and
// translation-table storage; TreadMarks page copies, twins, stored
// diffs, and the write-notice board. Nothing here is Go heap
// measurement: protocol layers charge the *modeled* bytes explicitly,
// the way they charge simulated time, so a footprint report is a pure
// function of the program like every other number in the tables
// (DESIGN.md §9).
//
// Determinism follows the Stats.CountP recipe with one extra subtlety:
// beyond per-category cells, each shard tracks the processor's *total*
// current/peak bytes, and a peak of interleaved allocs and frees is
// only reproducible if one goroutine owns the shard's update order.
// The rule, therefore: a processor's memory is charged from its own
// goroutine (or from the single-threaded init phase), in program
// order. The one store mutated from foreign goroutines — the
// TreadMarks notice board, appended to inside barrier combines — is
// charged to the global shard (proc -1) and only ever grows until
// teardown, so its peak equals its final size regardless of arrival
// order. Counters are integers; merges are order-independent.
//
// Locking contract under the sharded scheduler (DESIGN.md §10): shard
// mutexes are leaf locks, and no scheduler lock is ever needed to
// charge memory — Alloc/Free run on the owning processor's goroutine
// (or single-threaded setup/teardown), exactly as before the sharding.
// The one foreign-goroutine path, the barrier-combine board charge,
// runs while the combining processor holds Cluster.barMu; that is safe
// (barMu → shard mutex nests downward) and still orders all board
// charges, because combines of one barrier are serialized by the
// episode itself. Nothing may block on a scheduler lock (mbMu, barMu,
// arbMu) while holding a shard mutex.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MemStat is one cell of the footprint grid: the bytes currently
// charged and the high-water mark since the cluster was created.
// Footprints are ledger state, not flows — SealInit-style resets do
// not clear them, because the arrays allocated during initialization
// are exactly the memory the machine must hold.
type MemStat struct {
	CurBytes  int64
	PeakBytes int64
}

// IsZero reports whether both counters are zero.
func (m MemStat) IsZero() bool { return m == MemStat{} }

// MemKey identifies one cell of the per-category, per-processor grid.
// Proc -1 is the global shard (charges not owned by one processor,
// e.g. the TreadMarks notice board).
type MemKey struct {
	Cat  string
	Proc int
}

// memShard is one processor's private ledger: per-category cells plus
// the processor's total, whose peak is the true footprint high-water
// mark (the sum of per-category peaks would overstate it — categories
// rarely peak together).
type memShard struct {
	mu    sync.Mutex
	byCat map[string]*MemStat
	total MemStat
}

func (s *memShard) cell(cat string) *MemStat {
	m := s.byCat[cat]
	if m == nil {
		m = &MemStat{}
		if s.byCat == nil {
			s.byCat = map[string]*MemStat{}
		}
		s.byCat[cat] = m
	}
	return m
}

// MemStats is the cluster-wide simulated-memory store, one shard per
// processor plus the global shard.
type MemStats struct {
	global memShard
	shards []memShard

	// c points back to the owning cluster so per-processor charges can
	// emit trace counter events stamped with the processor's simulated
	// clock. Nil for standalone MemStats (tests); global-shard charges
	// (proc -1) are never traced — they have no deterministic lane
	// (DESIGN.md §13).
	c *Cluster
}

// attach wires the owning cluster (NewCluster calls this after init).
func (m *MemStats) attach(c *Cluster) { m.c = c }

// NewMemStats returns a MemStats with procs per-processor shards (the
// cluster does this itself; the constructor exists for tests).
func NewMemStats(procs int) *MemStats {
	m := &MemStats{}
	m.init(procs)
	return m
}

func (m *MemStats) init(procs int) {
	m.shards = make([]memShard, procs)
}

func (m *MemStats) shard(proc int) *memShard {
	if proc >= 0 && proc < len(m.shards) {
		return &m.shards[proc]
	}
	return &m.global
}

// Alloc charges bytes of simulated memory to processor proc under
// category cat. bytes must be non-negative; zero is a no-op.
func (m *MemStats) Alloc(proc int, cat string, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative mem alloc of %d bytes (%s, proc %d)", bytes, cat, proc))
	}
	if bytes == 0 {
		return
	}
	sh := m.shard(proc)
	sh.mu.Lock()
	c := sh.cell(cat)
	c.CurBytes += bytes
	if c.CurBytes > c.PeakBytes {
		c.PeakBytes = c.CurBytes
	}
	cur := c.CurBytes
	sh.total.CurBytes += bytes
	if sh.total.CurBytes > sh.total.PeakBytes {
		sh.total.PeakBytes = sh.total.CurBytes
	}
	sh.mu.Unlock()
	m.traceCharge(proc, cat, cur)
}

// traceCharge emits a trace counter sample for one per-processor cell.
// Charges follow the package's own-goroutine discipline, so the lane
// append order is program order; global-shard charges are dropped.
func (m *MemStats) traceCharge(proc int, cat string, cur int64) {
	if m.c == nil || m.c.trace == nil || proc < 0 || proc >= len(m.shards) {
		return
	}
	m.c.trace.MemCounter(proc, cat, m.c.procs[proc].Clock(), cur)
}

// Free returns bytes previously charged with Alloc. Freeing more than
// is currently charged panics: an underflow means an accounting bug
// (a double free or a charge attributed to the wrong cell), and a
// silently negative ledger would poison every later peak.
func (m *MemStats) Free(proc int, cat string, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative mem free of %d bytes (%s, proc %d)", bytes, cat, proc))
	}
	if bytes == 0 {
		return
	}
	sh := m.shard(proc)
	sh.mu.Lock()
	c := sh.cell(cat)
	if c.CurBytes < bytes {
		cur := c.CurBytes
		sh.mu.Unlock()
		panic(fmt.Sprintf("sim: mem underflow: free %d bytes of %q on proc %d with only %d charged",
			bytes, cat, proc, cur))
	}
	c.CurBytes -= bytes
	cur := c.CurBytes
	sh.total.CurBytes -= bytes
	sh.mu.Unlock()
	m.traceCharge(proc, cat, cur)
}

// Snapshot returns the full per-(category, processor) grid. The global
// shard appears as Proc == -1.
func (m *MemStats) Snapshot() map[MemKey]MemStat {
	out := map[MemKey]MemStat{}
	collect := func(sh *memShard, proc int) {
		sh.mu.Lock()
		for cat, ms := range sh.byCat {
			if !ms.IsZero() {
				out[MemKey{Cat: cat, Proc: proc}] = *ms
			}
		}
		sh.mu.Unlock()
	}
	collect(&m.global, -1)
	for i := range m.shards {
		collect(&m.shards[i], i)
	}
	return out
}

// ProcPeaks returns each processor's total footprint (index = proc id)
// followed by the global shard's: current bytes and the true per-shard
// high-water mark.
func (m *MemStats) ProcPeaks() (procs []MemStat, global MemStat) {
	procs = make([]MemStat, len(m.shards))
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		procs[i] = sh.total
		sh.mu.Unlock()
	}
	m.global.mu.Lock()
	global = m.global.total
	m.global.mu.Unlock()
	return procs, global
}

// MaxPeakBytes returns the largest per-processor footprint high-water
// mark — the number a per-processor memory budget constrains.
func (m *MemStats) MaxPeakBytes() int64 {
	procs, _ := m.ProcPeaks()
	max := int64(0)
	for _, p := range procs {
		if p.PeakBytes > max {
			max = p.PeakBytes
		}
	}
	return max
}

// CheckBalanced reports an error if any cell still has bytes charged —
// the teardown invariant: every Alloc must be matched by a Free once
// the protocol layers release their structures.
func (m *MemStats) CheckBalanced() error {
	snap := m.Snapshot()
	var leaks []string
	for _, k := range SortedMemKeys(snap) {
		if snap[k].CurBytes != 0 {
			leaks = append(leaks, fmt.Sprintf("%s/proc%d=%d", k.Cat, k.Proc, snap[k].CurBytes))
		}
	}
	if len(leaks) > 0 {
		return fmt.Errorf("sim: unbalanced mem ledger at teardown: %s", strings.Join(leaks, ", "))
	}
	return nil
}

// SortedMemKeys returns the snapshot's keys ordered by (Cat, Proc) —
// the canonical report order.
func SortedMemKeys(snap map[MemKey]MemStat) []MemKey {
	keys := make([]MemKey, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Cat != keys[j].Cat {
			return keys[i].Cat < keys[j].Cat
		}
		return keys[i].Proc < keys[j].Proc
	})
	return keys
}

// String formats the ledger, one (category, proc) cell per line in
// canonical order.
func (m *MemStats) String() string {
	snap := m.Snapshot()
	var b strings.Builder
	for _, k := range SortedMemKeys(snap) {
		ms := snap[k]
		fmt.Fprintf(&b, "mem %-18s proc %3d: %12d cur-bytes %12d peak-bytes\n",
			k.Cat, k.Proc, ms.CurBytes, ms.PeakBytes)
	}
	return b.String()
}
