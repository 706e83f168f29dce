package sim

import "sync"

// shard is one processor's private slice of a statistics ledger: the
// cells keyed by K, created on first use, behind one mutex. Stats
// (string → CatStat), SyncStats (int → LockStat) and MemStats
// (string → MemStat) are each a []shard indexed by processor id.
//
// The contract every ledger keeps (DESIGN.md §8, §10):
//
//   - Determinism. An update lands in the acting processor's own shard,
//     in that processor's program order, so each shard's cells evolve
//     the same way in every run; integer cells then merge
//     order-independently, and float sums are merged by readers in
//     (key, proc) order.
//   - Locking. mu is a leaf of the scheduler's hierarchy: it may be
//     taken under Cluster.arbMu or Cluster.barMu, and nothing is ever
//     locked while holding it. In steady state it is uncontended, since
//     a shard is written by its own processor's goroutine.
//
// last memoizes the most recently used cell: hot loops hit one key
// back to back (a message category, a contended lock), and the memo
// keeps them off the map. Cells are never dropped, so the memo never
// goes stale. The trailing pad keeps the hot fields of
// adjacent shards at least a cache line apart, so they never
// false-share.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	cells   map[K]*V
	lastKey K
	last    *V
	_       [64]byte
}

// cell returns the cell for k, creating it on first use. The caller
// holds s.mu.
func (s *shard[K, V]) cell(k K) *V {
	if s.last != nil && s.lastKey == k {
		return s.last
	}
	v := s.cells[k]
	if v == nil {
		v = new(V)
		if s.cells == nil {
			s.cells = map[K]*V{}
		}
		s.cells[k] = v
	}
	s.lastKey, s.last = k, v
	return v
}

// each calls f with every shard's index and cells, in index (processor
// id) order, holding that shard's mutex.
func each[K comparable, V any](shards []shard[K, V], f func(i int, cells map[K]*V)) {
	for i := range shards {
		sh := &shards[i]
		sh.mu.Lock()
		f(i, sh.cells)
		sh.mu.Unlock()
	}
}
