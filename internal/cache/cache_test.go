package cache

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func key(s string) Key { return KeyOf([]byte(s)) }

// TestKeyOf checks the content address is stable for equal bytes and
// distinct for different bytes.
func TestKeyOf(t *testing.T) {
	if key("a") != key("a") {
		t.Error("equal content hashed to different keys")
	}
	if key("a") == key("b") {
		t.Error("different content hashed to the same key")
	}
	if len(key("a").String()) != 64 {
		t.Errorf("hex key length = %d, want 64", len(key("a").String()))
	}
}

// TestGetPut exercises the basic hit/miss path and the counters.
func TestGetPut(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.PutSized(key("a"), "va", 0)
	v, ok := c.Get(key("a"))
	if !ok || v.(string) != "va" {
		t.Fatalf("Get = %v, %v, want va, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 || st.Capacity != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestReplaceSameKey checks a re-Put of an existing key replaces the
// value without growing the cache.
func TestReplaceSameKey(t *testing.T) {
	c := New(2)
	c.PutSized(key("a"), 1, 0)
	c.PutSized(key("a"), 2, 0)
	if n := c.Stats().Entries; n != 1 {
		t.Errorf("entries = %d after same-key re-Put, want 1", n)
	}
	if v, _ := c.Get(key("a")); v.(int) != 2 {
		t.Errorf("value = %v, want the replacement 2", v)
	}
}

// TestLRUEviction fills the cache past capacity and checks the
// least-recently-used entry is the one discarded.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.PutSized(key("a"), "va", 0)
	c.PutSized(key("b"), "vb", 0)
	c.Get(key("a")) // a is now most-recently used
	c.PutSized(key("c"), "vc", 0)
	if _, ok := c.Get(key("b")); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Error("recently-used entry a was evicted")
	}
	if _, ok := c.Get(key("c")); !ok {
		t.Error("new entry c missing")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

// TestBytesAccounting checks PutSized feeds Stats.Bytes through
// insert, same-key replacement, and eviction.
func TestBytesAccounting(t *testing.T) {
	c := New(2)
	c.PutSized(key("a"), "va", 100)
	c.PutSized(key("b"), "vb", 30)
	if got := c.Stats().Bytes; got != 130 {
		t.Errorf("Bytes = %d after two inserts, want 130", got)
	}
	c.PutSized(key("b"), "vb2", 50) // replacement: delta, not sum
	if got := c.Stats().Bytes; got != 150 {
		t.Errorf("Bytes = %d after replacement, want 150", got)
	}
	c.PutSized(key("c"), "vc", 7) // evicts a (LRU), -100
	if got := c.Stats().Bytes; got != 57 {
		t.Errorf("Bytes = %d after eviction, want 57", got)
	}
	c.PutSized(key("d"), "vd", 0) // a zero size accounts zero bytes; evicts b, -50
	if got := c.Stats().Bytes; got != 7 {
		t.Errorf("Bytes = %d after zero-sized insert, want 7", got)
	}
}

// TestBytesGaugeExposed asserts the memory tier's repro_cache_bytes
// series renders in the default registry's exposition — the scrape
// contract the run service's /metrics endpoint relies on.
func TestBytesGaugeExposed(t *testing.T) {
	c := New(2)
	c.PutSized(key("exposed"), "v", 11)
	text := obs.Default().Text()
	if !strings.Contains(text, `repro_cache_bytes{tier="memory"} `) {
		t.Errorf("exposition missing the memory-tier bytes gauge:\n%s", text)
	}
}

// TestBadCapacityPanics checks the constructor rejects a no-op cache.
func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}
