package disk

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/raceflag"
)

// pair fabricates a (canonical, payload) entry; the canonical bytes
// only need to be distinct, not real request encodings — the store is
// deliberately byte-level.
func pair(tag string) (canonical, payload []byte) {
	return []byte("runrequest/v1\nexperiment=" + tag + "\n"), []byte(`{"payload":"` + tag + `"}`)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	canon, payload := pair("a")
	k, err := s.Put(canon, payload)
	if err != nil {
		t.Fatal(err)
	}
	if k != cache.KeyOf(canon) {
		t.Error("Put returned a key the canonical bytes do not hash to")
	}
	gc, gp, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a just-stored entry")
	}
	if string(gc) != string(canon) || string(gp) != string(payload) {
		t.Errorf("round trip changed bytes: canonical %q payload %q", gc, gp)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats after one put+get: %+v", st)
	}
}

func TestGetMiss(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get(cache.KeyOf([]byte("absent"))); ok {
		t.Fatal("Get hit on an empty store")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// TestCorruptEntryDroppedAsMiss replaces a stored file with each
// corruption below and checks the integrity gate: the read reports a
// miss and deletes the file.
func TestCorruptEntryDroppedAsMiss(t *testing.T) {
	canon, payload := pair("a")
	sum := sha256.Sum256(payload)
	digest := hex.EncodeToString(sum[:])
	cl, pl := strconv.Itoa(len(canon)), strconv.Itoa(len(payload))
	header := func(canonLen, payloadLen, digest string) string {
		return "reprodisk/v1 " + canonLen + " " + payloadLen + " " + digest + "\n"
	}
	flip := func(b []byte, i int) string {
		b = []byte(string(b))
		b[i] ^= 0xff
		return string(b)
	}
	body := string(canon) + string(payload)
	valid := header(cl, pl, digest) + body

	// The test's own encoding of an entry must be the one Put writes.
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := s.Put(canon, payload)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, k.String()+fileSuffix)); err != nil || string(raw) != valid {
		t.Fatalf("Put wrote %q (%v), want %q", raw, err, valid)
	}

	for _, tc := range []struct{ name, file string }{
		{"no newline", strings.TrimSuffix(header(cl, pl, digest), "\n")},
		{"bad magic", "reprodisk/v2" + strings.TrimPrefix(valid, "reprodisk/v1")},
		{"negative canonical length", header("-1", pl, digest) + body},
		{"negative payload length", header(cl, "-1", digest) + body},
		{"overflowing length", header("99999999999999999999", pl, digest) + body},
		{"lengths whose sum overflows", header("9223372036854775807", "9223372036854775807", digest) + body},
		{"short body", header(cl, pl, digest) + body[:len(body)-1]},
		{"non-hex digest", header(cl, pl, strings.Repeat("g", len(digest))) + body},
		{"short digest", header(cl, pl, digest[:len(digest)-2]) + body},
		{"flipped canonical byte", header(cl, pl, digest) + flip(canon, 0) + string(payload)},
		{"flipped payload byte", header(cl, pl, digest) + string(canon) + flip(payload, len(payload)-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			k, err := s.Put(canon, payload)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, k.String()+fileSuffix)
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := s.Get(k); ok {
				t.Fatal("Get served a corrupt entry")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt file was not deleted")
			}
			if s.Stats().Entries != 0 {
				t.Errorf("entries = %d after dropping the only entry", s.Stats().Entries)
			}
		})
	}
}

// TestEvictionOrder fills past the byte budget and checks the least
// recently used entries go first, with a Get refreshing recency.
func TestEvictionOrder(t *testing.T) {
	s, err := Open(t.TempDir(), 1) // every put over-budget; sparing the newest leaves exactly one
	if err != nil {
		t.Fatal(err)
	}
	ca, pa := pair("a")
	ka, _ := s.Put(ca, pa)
	cb, pb := pair("b")
	kb, _ := s.Put(cb, pb)
	if s.Stats().Entries != 1 {
		t.Fatalf("entries = %d under a 1-byte budget, want 1", s.Stats().Entries)
	}
	if _, _, ok := s.Get(ka); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, _, ok := s.Get(kb); !ok {
		t.Error("newest entry was evicted")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	ca, pa := pair("a")
	cb, pb := pair("b")
	cc, pc := pair("c")
	budget := int64(2 * (len("reprodisk/v1 00 00 \n") + 64 + len(ca) + len(pa) + 8))
	s, err := Open(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	ka, _ := s.Put(ca, pa)
	kb, _ := s.Put(cb, pb)
	if s.Stats().Entries != 2 {
		t.Fatalf("budget %d does not hold two entries (got %d); fix the test arithmetic", budget, s.Stats().Entries)
	}
	s.Get(ka) // a is now most recent; b should evict when c arrives
	kc, _ := s.Put(cc, pc)
	if _, _, ok := s.Get(kb); ok {
		t.Error("least recently used entry b survived")
	}
	for _, k := range []cache.Key{ka, kc} {
		if _, _, ok := s.Get(k); !ok {
			t.Errorf("entry %s was evicted despite being recent", k)
		}
	}
}

// TestReopenRestoresEntries is the cold-start contract: a new Store
// over an existing directory serves every stored entry with verified
// bytes, in the recency order the mtimes recorded.
func TestReopenRestoresEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ca, pa := pair("a")
	cb, pb := pair("b")
	ka, _ := s.Put(ca, pa)
	kb, _ := s.Put(cb, pb)
	// Pin distinct mtimes (filesystem granularity would otherwise tie):
	// a older than b.
	old := time.Now().Add(-2 * time.Hour)
	os.Chtimes(filepath.Join(dir, ka.String()+fileSuffix), old, old)

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Entries != 2 {
		t.Fatalf("reopened store has %d entries, want 2", s2.Stats().Entries)
	}
	gc, gp, ok := s2.Get(ka)
	if !ok || string(gc) != string(ca) || string(gp) != string(pa) {
		t.Errorf("reopened store served wrong bytes for a: ok=%v", ok)
	}
	if _, _, ok := s2.Get(kb); !ok {
		t.Error("reopened store missed b")
	}

	// A third store with a budget for one entry must evict the older
	// file (a) during the opening scan.
	oneBudget := s2.Stats().Bytes/2 + 1
	s3, err := Open(dir, oneBudget)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Stats().Entries != 1 {
		t.Fatalf("budgeted reopen kept %d entries, want 1", s3.Stats().Entries)
	}
	if _, _, ok := s3.Get(kb); !ok {
		t.Error("budgeted reopen evicted the newer entry instead of the older")
	}
}

// TestDiskSeriesExposed asserts the disk tier's metric series —
// including its leg of the shared repro_cache_bytes family — render
// in the default registry's exposition.
func TestDiskSeriesExposed(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	canon, payload := pair("exposed")
	k, _ := s.Put(canon, payload)
	s.Get(k)
	s.Get(cache.KeyOf([]byte("never stored")))
	text := obs.Default().Text()
	for _, want := range []string{
		`repro_cache_bytes{tier="disk"} `,
		"repro_disk_hits_total ",
		"repro_disk_misses_total ",
		"repro_disk_evictions_total ",
		"repro_disk_entries ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestOpenIgnoresForeignFiles checks the scan adopts only files named
// by a full hex key, leaving anything else untouched.
func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a cache file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "short.run"), []byte("bad name"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Entries != 0 {
		t.Errorf("scan adopted %d foreign files", s.Stats().Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Error("foreign file was touched")
	}
}

// checkConsistent fails unless the index, the recency list, the byte
// count and the files on disk all describe the same entries.
func checkConsistent(t *testing.T, s *Store) {
	t.Helper()
	des, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	files, bytes := 0, int64(0)
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), fileSuffix) {
			t.Errorf("stray file %s", de.Name())
			continue
		}
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		files++
		bytes += info.Size()
	}
	st := s.Stats()
	if st.Entries != files || st.Bytes != bytes {
		t.Errorf("stats count %d entries, %d bytes; the directory holds %d files, %d bytes",
			st.Entries, st.Bytes, files, bytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.items) != s.order.Len() {
		t.Errorf("index holds %d keys, recency list %d elements", len(s.items), s.order.Len())
	}
	for el := s.order.Front(); el != nil; el = el.Next() {
		if !s.indexed(el) {
			t.Errorf("recency list holds %s, which the index does not", el.Value.(*entry).key)
		}
	}
}

// TestConcurrentPutGetBounded races Put and Get over more keys than the
// byte budget holds — the configuration `simd -disk-bytes` runs. A Get
// reads its file outside the lock; an entry evicted meanwhile must not
// come back into the recency list without its file and index entry,
// where a later eviction would count its bytes twice and delete the
// file of the key's next entry.
func TestConcurrentPutGetBounded(t *testing.T) {
	const workers, keys, rounds = 4, 24, 100
	s, err := Open(t.TempDir(), 8800)
	if err != nil {
		t.Fatal(err)
	}
	filler := strings.Repeat("x", 600)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				tag := strconv.Itoa((w*7 + i*5) % keys)
				canon, payload := pair(tag + filler)
				k, err := s.Put(canon, payload)
				if err != nil {
					t.Error(err)
					return
				}
				s.Get(k)
				s.Get(cache.KeyOf([]byte("runrequest/v1\nexperiment=" + strconv.Itoa(i%keys) + filler + "\n")))
			}
		}()
	}
	wg.Wait()
	checkConsistent(t, s)
	if st := s.Stats(); st.Evictions == 0 || st.Hits == 0 {
		t.Errorf("the test did not exercise eviction and hits: %+v", st)
	}
}

// getCost measures one Store.Get of k: mallocs (truncated, as
// testing.AllocsPerRun does) and bytes allocated.
func getCost(s *Store, k cache.Key) (allocs, bytes float64) {
	const runs = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.Get(k)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		s.Get(k)
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestGetCostIndependentOfSize pins that a hit's cost does not grow
// with the store: refreshing recency moves one list element, it does
// not copy the order.
func TestGetCostIndependentOfSize(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		canon, payload := pair(strconv.Itoa(i))
		if _, err := s.Put(canon, payload); err != nil {
			t.Fatal(err)
		}
	}
	probe := cache.KeyOf([]byte("runrequest/v1\nexperiment=3\n"))
	smallAllocs, smallBytes := getCost(s, probe)
	// Only the probe's file is read, so the other entries are indexed
	// without files (creating 2,000 costs about a second of system time).
	s.mu.Lock()
	for i := 10; i < 2000; i++ {
		k := cache.KeyOf([]byte(strconv.Itoa(i)))
		s.items[k] = s.order.PushFront(&entry{key: k})
	}
	s.mu.Unlock()
	largeAllocs, largeBytes := getCost(s, probe)
	if largeAllocs != smallAllocs || largeBytes > smallBytes+64 {
		t.Errorf("Get at %d entries: %.0f allocs, %.0f B; at 10 entries: %.0f allocs, %.0f B",
			s.Stats().Entries, largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}
