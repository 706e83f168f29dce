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
// Beyond the shard contract (ledger.go), each shard tracks the
// processor's *total* current/peak bytes, and a peak of interleaved
// allocs and frees is only reproducible if one goroutine owns the
// shard's update order: a processor's memory is charged from its own
// goroutine (or the single-threaded init phase), in program order.
// The one store mutated from foreign goroutines — the TreadMarks
// notice board, appended to inside barrier combines under
// Cluster.barMu — is charged to the global shard (proc -1) and only
// grows until teardown, so its peak equals its final size regardless
// of arrival order.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// MemStat is one cell of the footprint grid: the bytes currently
// charged and the high-water mark since the cluster was created.
// Footprints are ledger state, not flows: a measurement window reads
// them as they stand rather than subtracting its start, because the
// arrays allocated during initialization are exactly the memory the
// machine must hold.
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

// MemStats is the cluster-wide simulated-memory store: one shard per
// processor, then the global shard (proc -1) last.
type MemStats struct {
	shards []shard[string, MemStat]
	// totals[i] is shard i's total, guarded by shards[i].mu. Its peak
	// is the true footprint high-water mark (the sum of per-category
	// peaks would overstate it — categories rarely peak together).
	totals []MemStat

	// c points back to the owning cluster so per-processor charges can
	// emit trace counter events stamped with the processor's simulated
	// clock. Nil for standalone MemStats (tests); global-shard charges
	// (proc -1) are never traced — they have no deterministic lane
	// (DESIGN.md §13).
	c *Cluster
}

// attach wires the owning cluster (NewCluster calls this after init).
func (m *MemStats) attach(c *Cluster) { m.c = c }

func (m *MemStats) init(procs int) {
	m.shards = make([]shard[string, MemStat], procs+1)
	m.totals = make([]MemStat, procs+1)
}

// index returns proc's shard index: proc itself, or the last shard for
// the global proc -1. Any other id is a caller bug.
func (m *MemStats) index(proc int) int {
	n := len(m.shards) - 1
	if proc == -1 {
		return n
	}
	if proc < 0 || proc >= n {
		panic(fmt.Sprintf("sim: mem charge to proc %d of a %d-proc cluster", proc, n))
	}
	return proc
}

// Alloc charges bytes of simulated memory to processor proc under
// category cat. bytes must be non-negative; zero is a no-op.
func (m *MemStats) Alloc(proc int, cat string, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative mem alloc of %d bytes (%s, proc %d)", bytes, cat, proc))
	}
	i := m.index(proc)
	if bytes == 0 {
		return
	}
	sh, t := &m.shards[i], &m.totals[i]
	sh.mu.Lock()
	c := sh.cell(cat)
	c.CurBytes += bytes
	if c.CurBytes > c.PeakBytes {
		c.PeakBytes = c.CurBytes
	}
	cur := c.CurBytes
	t.CurBytes += bytes
	if t.CurBytes > t.PeakBytes {
		t.PeakBytes = t.CurBytes
	}
	sh.mu.Unlock()
	m.traceCharge(proc, cat, cur)
}

// traceCharge emits a trace counter sample for one per-processor cell.
// Charges follow the package's own-goroutine discipline, so the lane
// append order is program order; global-shard charges are dropped.
func (m *MemStats) traceCharge(proc int, cat string, cur int64) {
	if m.c == nil || m.c.trace == nil || proc < 0 {
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
	i := m.index(proc)
	if bytes == 0 {
		return
	}
	sh := &m.shards[i]
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
	m.totals[i].CurBytes -= bytes
	sh.mu.Unlock()
	m.traceCharge(proc, cat, cur)
}

// Snapshot returns the full per-(category, processor) grid. The global
// shard appears as Proc == -1.
func (m *MemStats) Snapshot() map[MemKey]MemStat {
	out := map[MemKey]MemStat{}
	global := len(m.shards) - 1
	each(m.shards, func(i int, cells map[string]*MemStat) {
		proc := i
		if i == global {
			proc = -1
		}
		for cat, ms := range cells {
			if !ms.IsZero() {
				out[MemKey{Cat: cat, Proc: proc}] = *ms
			}
		}
	})
	return out
}

// ProcPeaks returns each processor's total footprint (index = proc id)
// followed by the global shard's: current bytes and the true per-shard
// high-water mark.
func (m *MemStats) ProcPeaks() (procs []MemStat, global MemStat) {
	all := make([]MemStat, len(m.shards))
	each(m.shards, func(i int, _ map[string]*MemStat) { all[i] = m.totals[i] })
	n := len(all) - 1
	return all[:n], all[n]
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
