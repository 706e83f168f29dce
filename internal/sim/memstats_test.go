package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// newMemStats returns a MemStats with procs per-processor shards and no
// cluster, as NewCluster builds its own.
func newMemStats(procs int) *MemStats {
	m := &MemStats{}
	m.init(procs)
	return m
}

func TestMemAllocFreePeak(t *testing.T) {
	m := newMemStats(2)
	m.Alloc(0, "pages", 100)
	m.Alloc(0, "twins", 50)
	m.Free(0, "twins", 50)
	m.Alloc(0, "twins", 20)

	snap := m.Snapshot()
	if got := snap[MemKey{"pages", 0}]; got != (MemStat{CurBytes: 100, PeakBytes: 100}) {
		t.Errorf("pages cell = %+v", got)
	}
	if got := snap[MemKey{"twins", 0}]; got != (MemStat{CurBytes: 20, PeakBytes: 50}) {
		t.Errorf("twins cell = %+v", got)
	}
	procs, _ := m.ProcPeaks()
	// The total peaked at 150 (pages + first twin), not 100+50+20.
	if procs[0] != (MemStat{CurBytes: 120, PeakBytes: 150}) {
		t.Errorf("proc 0 total = %+v, want cur 120 peak 150", procs[0])
	}
}

// TestMemPeakNeverBelowCur samples the invariant peak >= cur at every
// step of an alloc/free walk, per cell and per shard total.
func TestMemPeakNeverBelowCur(t *testing.T) {
	m := newMemStats(1)
	sizes := []int64{64, 4096, 1, 300, 7}
	for i, sz := range sizes {
		m.Alloc(0, "a", sz)
		if i%2 == 0 {
			m.Alloc(0, "b", sz/2+1)
		}
		check := func(ms MemStat, what string) {
			if ms.PeakBytes < ms.CurBytes {
				t.Fatalf("step %d: %s peak %d < cur %d", i, what, ms.PeakBytes, ms.CurBytes)
			}
		}
		for k, ms := range m.Snapshot() {
			check(ms, k.Cat)
		}
		procs, _ := m.ProcPeaks()
		check(procs[0], "total")
		if i > 0 {
			m.Free(0, "a", sizes[i-1])
		}
	}
}

func TestMemConservationAtTeardown(t *testing.T) {
	m := newMemStats(3)
	for p := 0; p < 3; p++ {
		m.Alloc(p, "pages", 8192)
		m.Alloc(p, "diffs", int64(100*(p+1)))
	}
	m.Alloc(-1, "board", 77)
	if err := m.CheckBalanced(); err == nil {
		t.Fatal("CheckBalanced passed with live charges")
	}
	for p := 0; p < 3; p++ {
		m.Free(p, "pages", 8192)
		m.Free(p, "diffs", int64(100*(p+1)))
	}
	m.Free(-1, "board", 77)
	if err := m.CheckBalanced(); err != nil {
		t.Fatalf("CheckBalanced after full teardown: %v", err)
	}
	// Peaks survive the teardown (they are the report).
	if procs, _ := m.ProcPeaks(); procs[0].PeakBytes == 0 {
		t.Error("peaks were lost at teardown")
	}
}

func TestMemUnderflowPanics(t *testing.T) {
	m := newMemStats(1)
	m.Alloc(0, "x", 10)
	defer func() {
		if recover() == nil {
			t.Error("over-free did not panic")
		}
	}()
	m.Free(0, "x", 11)
}

func TestMemNegativeAllocPanics(t *testing.T) {
	m := newMemStats(1)
	defer func() {
		if recover() == nil {
			t.Error("negative alloc did not panic")
		}
	}()
	m.Alloc(0, "x", -1)
}

// TestMemBadProcPanics: only -1 (the global shard) and 0..procs-1 name
// a shard; any other id is a caller bug, not a global-shard charge.
func TestMemBadProcPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, proc := range []int{-2, 2, 99} {
		m := newMemStats(2)
		m.Alloc(-1, "x", 8)
		mustPanic(fmt.Sprintf("Alloc on proc %d", proc), func() { m.Alloc(proc, "x", 8) })
		mustPanic(fmt.Sprintf("Free on proc %d", proc), func() { m.Free(proc, "x", 8) })
		if _, g := m.ProcPeaks(); g != (MemStat{CurBytes: 8, PeakBytes: 8}) {
			t.Errorf("proc %d: global shard = %+v, want cur 8 peak 8", proc, g)
		}
	}
}

// TestMemShardedDeterminism races per-processor charge sequences on
// separate goroutines (own-shard discipline) and checks the snapshot is
// independent of scheduling.
func TestMemShardedDeterminism(t *testing.T) {
	run := func() map[MemKey]MemStat {
		m := newMemStats(8)
		var wg sync.WaitGroup
		for p := 0; p < 8; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					m.Alloc(p, "twins", 4096)
					if i%3 == 0 {
						m.Free(p, "twins", 4096)
					}
					m.Alloc(-1, "board", 16) // global: grow-only, order-free
				}
			}(p)
		}
		wg.Wait()
		return m.Snapshot()
	}
	ref := run()
	for i := 0; i < 3; i++ {
		got := run()
		if len(got) != len(ref) {
			t.Fatalf("run %d: %d cells != %d", i, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("run %d: cell %+v = %+v, want %+v", i, k, got[k], v)
			}
		}
	}
}

func TestMemStringCanonical(t *testing.T) {
	m := newMemStats(2)
	m.Alloc(1, "b", 2)
	m.Alloc(0, "b", 1)
	m.Alloc(0, "a", 3)
	s := m.String()
	ia, ib0, ib1 := strings.Index(s, "a "), strings.Index(s, "b "), strings.LastIndex(s, "b ")
	if !(ia < ib0 && ib0 < ib1) {
		t.Errorf("not in canonical (cat, proc) order:\n%s", s)
	}
}
