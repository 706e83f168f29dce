// Package runner executes independent bench.RunRequests across a
// bounded worker pool with a content-addressed result cache in front
// (DESIGN.md §12). Simulated cluster runs are deterministic and
// mutually independent, so they parallelize with no ordering concerns:
// the runner's only job is to bound concurrency (one simulated cluster
// already saturates several OS threads via its per-proc goroutines)
// and to reassemble results in request order so callers see exactly
// the serial output, bytes and all, at any worker count.
package runner

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/obs"
)

// Registry metrics, aggregated across every Runner in the process.
// These are wall-clock/operational numbers (DESIGN.md §13) — they
// never appear in determinism-checked output.
var (
	mInflight = obs.Default().Gauge("repro_runner_inflight",
		"Requests currently executing under a pool slot.")
	mQueued = obs.Default().Gauge("repro_runner_queue_depth",
		"Requests blocked waiting for a pool slot.")
	mLatency = obs.Default().Histogram("repro_runner_request_seconds",
		"Wall-clock request latency, queue wait included.", obs.DefLatencyBuckets())
)

// Runner is a bounded executor for RunRequests. The semaphore bounds
// *executions*, not callers: any number of goroutines may block in Do,
// and cache hits bypass the pool entirely.
type Runner struct {
	sem chan struct{}
	c   *cache.LRU
}

// New builds a runner executing at most workers requests concurrently
// (workers <= 0 means GOMAXPROCS) with the given result cache (nil
// disables caching).
func New(workers int, c *cache.LRU) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{sem: make(chan struct{}, workers), c: c}
}

// Do returns the request's result, serving it from the cache when the
// content address has been executed before and running it under the
// pool bound otherwise. Only successful results are inserted, so a
// canceled or failed run can never corrupt the cache; the returned
// result is shared across callers and must be treated as immutable.
func (r *Runner) Do(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
	if req.Trace {
		// Tracing is a side effect outside the content address (the
		// canonical encoding deliberately omits the Trace flag, §12):
		// a cache hit would skip recording, and a Put would hand a
		// trace to requests that never asked for one. Traced requests
		// therefore never touch the cache in either direction.
		return r.execute(ctx, req)
	}
	var key cache.Key
	if r.c != nil {
		key = req.Key()
		if v, ok := r.c.Get(key); ok {
			return v.(*bench.RunResult), nil
		}
	}
	res, err := r.execute(ctx, req)
	if err != nil {
		return nil, err
	}
	if r.c != nil {
		r.c.PutSized(key, res, res.SizeBytes())
	}
	return res, nil
}

// DoUncached executes the request under the pool bound without
// consulting or populating the cache — the verification re-run of the
// scenario engine's repro check, which must prove the simulation (not
// the cache) reproduces.
func (r *Runner) DoUncached(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
	return r.execute(ctx, req)
}

func (r *Runner) execute(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
	start := time.Now()
	mQueued.Inc()
	select {
	case r.sem <- struct{}{}:
		mQueued.Dec()
	case <-ctx.Done():
		mQueued.Dec()
		return nil, ctx.Err()
	}
	mInflight.Inc()
	defer func() {
		mInflight.Dec()
		<-r.sem
		mLatency.Observe(time.Since(start).Seconds())
	}()
	return bench.Run(ctx, req)
}

// RunBatch executes the requests concurrently under the pool bound and
// returns their results in request order — the ordering rule that
// makes a parallel sweep byte-identical to the serial one. The first
// error cancels the remaining work and is returned alone.
func (r *Runner) RunBatch(ctx context.Context, reqs []bench.RunRequest) ([]*bench.RunResult, error) {
	return Map(ctx, reqs, func(ctx context.Context, _ int, req bench.RunRequest) (*bench.RunResult, error) {
		return r.Do(ctx, req)
	})
}

// Map runs fn over every item in its own goroutine and returns the
// results in item order. The first error observed cancels the shared
// context (so in-flight work aborts at its next phase boundary) and is
// the one returned. Concurrency is unbounded here by design: callers
// doing simulation work bound it through a Runner's pool inside fn,
// and a nested semaphore at this layer could deadlock against it.
func Map[T, R any](ctx context.Context, items []T, fn func(context.Context, int, T) (R, error)) ([]R, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]R, len(items))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := fn(ctx, i, items[i])
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				mu.Unlock()
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
