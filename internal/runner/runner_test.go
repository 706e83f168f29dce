package runner

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
)

// tinyRequest is a cheap app-experiment request for the pool/cache
// plumbing tests (one verified moldyn configuration on 2 simulated
// processors).
func tinyRequest(n int) bench.RunRequest {
	return bench.RunRequest{Experiment: "app", App: "moldyn", N: n, Procs: []int{2}}
}

// TestCacheHit checks a repeated request is served from the cache
// (same pointer, no re-execution) and that the cached result is
// deep-equal to a cold run of the same request on a fresh runner.
func TestCacheHit(t *testing.T) {
	ctx := context.Background()
	c := cache.New(8)
	r := New(2, c)
	first, err := r.Do(ctx, tinyRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Do(ctx, tinyRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("repeated request was re-executed instead of served from cache")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss", st)
	}

	cold, err := New(2, nil).Do(ctx, tinyRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, cold) {
		t.Error("cached result differs from a cold run of the same request")
	}
}

// TestDoUncachedBypassesCache checks the verification re-run path
// neither reads nor writes the cache.
func TestDoUncachedBypassesCache(t *testing.T) {
	ctx := context.Background()
	c := cache.New(8)
	r := New(2, c)
	warm, err := r.Do(ctx, tinyRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	re, err := r.DoUncached(ctx, tinyRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	if warm == re {
		t.Error("DoUncached returned the cached pointer")
	}
	if !reflect.DeepEqual(warm, re) {
		t.Error("uncached re-run differs from the cached result (determinism broken)")
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Errorf("DoUncached consulted the cache: %+v", st)
	}
}

// TestCanceledContext checks an aborted run returns the cancellation
// error, leaves nothing in the cache, and that the runner still
// executes subsequent requests normally.
func TestCanceledContext(t *testing.T) {
	c := cache.New(8)
	r := New(2, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Do(ctx, tinyRequest(64)); err == nil {
		t.Fatal("Do succeeded on a canceled context")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("canceled run left %d cache entries", st.Entries)
	}
	res, err := r.Do(context.Background(), tinyRequest(64))
	if err != nil || res == nil {
		t.Fatalf("Do after cancellation: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("successful run not cached: %+v", st)
	}
}

// TestBatchOrderAndDeterminism runs the same request list through a
// one-worker pool and a wide pool and requires deep-equal results in
// request order — the reassembly rule `scenario run -j` relies on.
func TestBatchOrderAndDeterminism(t *testing.T) {
	reqs := []bench.RunRequest{tinyRequest(64), tinyRequest(96), tinyRequest(64)}
	serial, err := New(1, nil).RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(4, nil).RunBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(reqs) || len(parallel) != len(reqs) {
		t.Fatalf("result counts = %d, %d, want %d", len(serial), len(parallel), len(reqs))
	}
	for i := range reqs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("result %d differs between 1-worker and 4-worker pools", i)
		}
	}
	// Positions 0 and 2 are the same request; without a cache both
	// executed independently and must still agree bit-for-bit.
	if !reflect.DeepEqual(serial[0], serial[2]) {
		t.Error("identical requests in one batch disagree")
	}
}

// TestMapPropagatesFirstError checks a failing item cancels the batch
// and surfaces its error alone.
func TestMapPropagatesFirstError(t *testing.T) {
	reqs := []bench.RunRequest{tinyRequest(64), {Experiment: "nonsense"}}
	if _, err := New(2, nil).RunBatch(context.Background(), reqs); err == nil {
		t.Fatal("batch with an invalid request succeeded")
	}
}
