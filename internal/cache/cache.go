// Package cache is the determinism-powered result cache (DESIGN.md
// §12): a content-addressed in-memory LRU keyed by the SHA-256 of a
// canonical request encoding. Bit-reproducibility (§7/§10) makes every
// simulated result a pure function of its canonically-encoded request,
// so cache coherence holds by construction — there is nothing to
// invalidate, ever; an entry can only be evicted, not stale.
//
// The cache stores opaque values (internal/runner pairs it with
// bench.RunRequest/RunResult) so the dependency points downward:
// bench can compute keys without importing the pool that uses them.
// Cached values are shared across callers and must be treated as
// immutable by everyone who reads them.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/obs"
)

// Registry metrics, aggregated across every LRU in the process (the
// scenario pool's cache and simd's memory tier): the satellite of
// DESIGN.md §13 that makes the per-instance Stats() counters reachable
// from `scenario run -metrics=-`. Entries is a gauge (insert +1, evict -1);
// the rest only grow.
var (
	mHits      = obs.Default().Counter("repro_cache_hits_total", "Result-cache lookups served from memory.")
	mMisses    = obs.Default().Counter("repro_cache_misses_total", "Result-cache lookups that fell through to execution.")
	mEvictions = obs.Default().Counter("repro_cache_evictions_total", "Result-cache entries displaced by LRU pressure.")
	mEntries   = obs.Default().Gauge("repro_cache_entries", "Result-cache entries currently resident, all instances.")
	mBytes     = obs.Default().GaugeVec("repro_cache_bytes",
		"Resident result-cache bytes by tier (approximate for the memory tier, file bytes for disk).", "tier")
	memBytes = mBytes.With("memory")
)

// TierBytesGauge returns the shared repro_cache_bytes series for a
// tier; the disk tier (internal/cache/disk) reports through it so both
// tiers land under one metric family.
func TierBytesGauge(tier string) *obs.Gauge { return mBytes.With(tier) }

// Key is a content address: the SHA-256 of a canonical encoding.
type Key [sha256.Size]byte

// KeyOf hashes a canonical encoding into its content address.
func KeyOf(canonical []byte) Key {
	return sha256.Sum256(canonical)
}

// String renders the key as hex (log and metrics labels).
func (k Key) String() string {
	return hex.EncodeToString(k[:])
}

// Stats is the cache's counter snapshot.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
	Bytes     int64 // sum of PutSized sizes currently resident
}

type entry struct {
	key  Key
	val  any
	size int64
}

// LRU is a fixed-capacity least-recently-used cache. All methods are
// safe for concurrent use; a Get refreshes recency.
type LRU struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List
	items     map[Key]*list.Element
	hits      int64
	misses    int64
	evictions int64
	bytes     int64
}

// New builds an LRU holding at most capacity entries; New panics on a
// non-positive capacity (a zero-capacity cache silently caching
// nothing would make every hit-rate number a lie).
func New(capacity int) *LRU {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	return &LRU{cap: capacity, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the cached value and whether it was present, counting a
// hit or a miss.
func (c *LRU) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		mMisses.Inc()
		return nil, false
	}
	c.hits++
	mHits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// PutSized inserts or refreshes a value with its approximate resident
// size, evicting the least-recently-used entry when the cache is full.
// Storing under the same key replaces the value and its size (with
// content addressing the two are the same result, so this only happens
// when two computations of one key race). The size feeds Stats.Bytes
// and the memory-tier repro_cache_bytes gauge; capacity is still
// counted in entries, not bytes — the size is accounting, not an
// eviction policy.
func (c *LRU) PutSized(k Key, v any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		c.bytes += size - e.size
		memBytes.Add(float64(size - e.size))
		e.val, e.size = v, size
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		old := oldest.Value.(*entry)
		delete(c.items, old.key)
		c.bytes -= old.size
		memBytes.Add(-float64(old.size))
		c.evictions++
		mEvictions.Inc()
		mEntries.Dec()
	}
	c.items[k] = c.ll.PushFront(&entry{key: k, val: v, size: size})
	c.bytes += size
	memBytes.Add(float64(size))
	mEntries.Inc()
}

// Stats snapshots the counters.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.cap,
		Bytes:     c.bytes,
	}
}
