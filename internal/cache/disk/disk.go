// Package disk is the result cache's second tier (DESIGN.md §14): a
// content-addressed store of (canonical request, encoded result)
// pairs as files under a root directory, sitting behind the memory
// LRU of internal/cache. The same determinism argument carries over —
// a file's payload is a pure function of the canonical bytes it is
// stored with, so entries are immutable and coherence needs no
// invalidation, only eviction. What disk adds is survival: a process
// restart (or a cold service start) finds the files and serves them
// without re-running anything, which the read-path integrity check
// makes safe — a file only counts as a hit if its canonical bytes
// re-hash to the key it is filed under and its payload matches the
// recorded digest; anything else is deleted and reported as a miss.
package disk

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Registry metrics, aggregated across every Store in the process,
// mirroring the memory tier's set. Bytes reports through the shared
// repro_cache_bytes family under tier="disk".
var (
	mHits      = obs.Default().Counter("repro_disk_hits_total", "Disk-tier lookups served from a verified file.")
	mMisses    = obs.Default().Counter("repro_disk_misses_total", "Disk-tier lookups that found no (valid) file.")
	mEvictions = obs.Default().Counter("repro_disk_evictions_total", "Disk-tier entries removed by size pressure.")
	mEntries   = obs.Default().Gauge("repro_disk_entries", "Disk-tier entries currently resident, all stores.")
	diskBytes  = cache.TierBytesGauge("disk")
)

// fileSuffix names the store's files: <64 hex key chars>.run.
const fileSuffix = ".run"

// header is the file format's first line. The canonical bytes and the
// payload follow back to back; the payload digest makes the result
// half of the file self-verifying (the request half verifies against
// the filename key by re-hashing).
const (
	headerMagic = "reprodisk/v1 "
	headerFmt   = headerMagic + "%d %d %s\n"
)

// Stats is the store's counter snapshot.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	MaxBytes  int64 // 0 = unbounded
}

type entry struct {
	key  cache.Key
	size int64
}

// Store is a size-bounded content-addressed file store. All methods
// are safe for concurrent use. Recency is tracked in memory and
// mirrored to file mtimes (best effort) so a reopened store restores
// the LRU order.
type Store struct {
	mu        sync.Mutex
	dir       string
	maxBytes  int64
	order     *list.List // of *entry; front = least recently used
	items     map[cache.Key]*list.Element
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

// Open creates (if needed) and scans the store's root directory,
// adopting every well-named file already there — the warm-start path.
// File contents are verified lazily on Get, not here, so opening a
// large store is one ReadDir, not a full re-hash. maxBytes <= 0 means
// unbounded.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: opening store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, order: list.New(), items: map[cache.Key]*list.Element{}}

	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: scanning store: %w", err)
	}
	type found struct {
		e     *entry
		mtime time.Time
	}
	var fs []found
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		hexKey := strings.TrimSuffix(name, fileSuffix)
		raw, err := hex.DecodeString(hexKey)
		if err != nil || len(raw) != sha256.Size {
			continue // not ours; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		var k cache.Key
		copy(k[:], raw)
		fs = append(fs, found{&entry{key: k, size: info.Size()}, info.ModTime()})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].mtime.Before(fs[j].mtime) })
	for _, f := range fs {
		s.items[f.e.key] = s.order.PushBack(f.e)
		s.bytes += f.e.size
	}
	mEntries.Add(float64(len(fs)))
	diskBytes.Add(float64(s.bytes))
	s.evictOver()
	return s, nil
}

func (s *Store) path(k cache.Key) string {
	return filepath.Join(s.dir, k.String()+fileSuffix)
}

// indexed reports whether el is the element the index holds for its
// key. Get and Put work on the file outside the lock; an element they
// looked up before may have been evicted, and its key stored afresh,
// in the meantime.
func (s *Store) indexed(el *list.Element) bool {
	return s.items[el.Value.(*entry).key] == el
}

// remove drops an indexed element and deletes its file.
func (s *Store) remove(el *list.Element) {
	e := s.order.Remove(el).(*entry)
	delete(s.items, e.key)
	s.bytes -= e.size
	diskBytes.Add(-float64(e.size))
	mEntries.Dec()
	os.Remove(s.path(e.key))
}

// evictOver removes least-recently-used entries until the store fits
// its byte budget, always sparing the most recent entry (a single
// oversized result is better kept than thrashed).
func (s *Store) evictOver() {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && s.order.Len() > 1 {
		s.remove(s.order.Front())
		s.evictions++
		mEvictions.Inc()
	}
}

// Put stores a (canonical, payload) pair under its content address.
// The key is recomputed from the canonical bytes — a caller cannot
// file a result under a key it does not hash to. Writes go through a
// temp file and an atomic rename, so a crash mid-write leaves either
// the old file or none, never a torn one. The rename happens under
// the lock with the index update, so an eviction cannot delete the
// fresh file between the two.
func (s *Store) Put(canonical, payload []byte) (cache.Key, error) {
	k := cache.KeyOf(canonical)
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf(headerFmt, len(canonical), len(payload), hex.EncodeToString(sum[:]))
	buf := make([]byte, 0, len(header)+len(canonical)+len(payload))
	buf = append(buf, header...)
	buf = append(buf, canonical...)
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return k, fmt.Errorf("disk: writing entry: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return k, fmt.Errorf("disk: writing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return k, fmt.Errorf("disk: writing entry: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmpName, s.path(k)); err != nil {
		os.Remove(tmpName)
		return k, fmt.Errorf("disk: writing entry: %w", err)
	}
	if el, ok := s.items[k]; ok {
		// Same content address, same bytes (determinism): only the
		// recency and the accounted size can change.
		e := el.Value.(*entry)
		s.bytes += int64(len(buf)) - e.size
		diskBytes.Add(float64(int64(len(buf)) - e.size))
		e.size = int64(len(buf))
		s.order.MoveToBack(el)
		return k, nil
	}
	e := &entry{key: k, size: int64(len(buf))}
	s.items[k] = s.order.PushBack(e)
	s.bytes += e.size
	diskBytes.Add(float64(e.size))
	mEntries.Inc()
	s.evictOver()
	return k, nil
}

// Get returns the verified (canonical, payload) pair for a key. A
// missing file is a plain miss; a file that fails any integrity check
// (header shape, canonical re-hash, payload digest) is deleted and
// reported as a miss — the §7 determinism contract means a valid
// entry can always be regenerated by simply re-running the request.
func (s *Store) Get(k cache.Key) (canonical, payload []byte, ok bool) {
	s.mu.Lock()
	el, known := s.items[k]
	s.mu.Unlock()
	if !known {
		s.miss()
		return nil, nil, false
	}
	path := s.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.drop(el)
		return nil, nil, false
	}
	canonical, payload, err = parseEntry(k, raw)
	if err != nil {
		s.drop(el)
		return nil, nil, false
	}

	s.mu.Lock()
	s.hits++
	if s.indexed(el) {
		s.order.MoveToBack(el)
	}
	s.mu.Unlock()
	mHits.Inc()
	// Mirror recency to the filesystem so a reopened store restores
	// the LRU order; purely advisory, so the error is ignored.
	now := time.Now()
	os.Chtimes(path, now, now)
	return canonical, payload, true
}

// miss counts a lookup that found nothing.
func (s *Store) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	mMisses.Inc()
}

// drop removes a corrupt or unreadable entry and counts a miss. The
// index check guards against a racing Put that has already replaced
// the entry under the same key — the fresh entry (and its
// freshly-written file) must survive.
func (s *Store) drop(el *list.Element) {
	s.mu.Lock()
	if s.indexed(el) {
		s.remove(el)
	}
	s.misses++
	s.mu.Unlock()
	mMisses.Inc()
}

// parseEntry validates a file against the key it is filed under. The
// header must be exactly what Put writes: the magic, two decimal
// lengths and a 64-hex-digit digest, single spaces between.
func parseEntry(k cache.Key, raw []byte) (canonical, payload []byte, err error) {
	line, body, ok := bytes.Cut(raw, []byte{'\n'})
	if !ok {
		return nil, nil, fmt.Errorf("disk: missing header line")
	}
	fields, ok := bytes.CutPrefix(line, []byte(headerMagic))
	canonField, fields, ok2 := bytes.Cut(fields, []byte{' '})
	payloadField, digestField, ok3 := bytes.Cut(fields, []byte{' '})
	if !ok || !ok2 || !ok3 || len(digestField) != 2*sha256.Size {
		return nil, nil, fmt.Errorf("disk: malformed header")
	}
	canonLen, err1 := strconv.Atoi(string(canonField))
	payloadLen, err2 := strconv.Atoi(string(payloadField))
	var digest [sha256.Size]byte
	_, err3 := hex.Decode(digest[:], digestField)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, nil, fmt.Errorf("disk: malformed header")
	}
	if canonLen < 0 || canonLen > len(body) || payloadLen != len(body)-canonLen {
		return nil, nil, fmt.Errorf("disk: length mismatch")
	}
	canonical, payload = body[:canonLen], body[canonLen:]
	if cache.KeyOf(canonical) != k {
		return nil, nil, fmt.Errorf("disk: canonical bytes do not hash to the filename key")
	}
	if sha256.Sum256(payload) != digest {
		return nil, nil, fmt.Errorf("disk: payload digest mismatch")
	}
	return canonical, payload, nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   s.order.Len(),
		Bytes:     s.bytes,
		MaxBytes:  s.maxBytes,
	}
}
