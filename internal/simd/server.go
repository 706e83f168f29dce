// Package simd is the run service (DESIGN.md §14): the repo's
// canonical request → result entry point wrapped in an HTTP/JSON
// shell, stdlib only. A POST body is a scenario spec document (the
// same strict registry-validated format `scenario run` executes);
// the service resolves it to a canonical bench.RunRequest, answers
// with the SHA-256 content address, and serves the structured result
// — or its exact rendering — from a two-tier cache: the
// memory LRU of internal/cache in front of the disk store of
// internal/cache/disk. Determinism does the heavy lifting: results
// are pure functions of requests, so concurrent identical
// submissions coalesce onto one inflight run, cached bytes never go
// stale, and a cold start over a warm disk tier serves byte-identical
// results without re-running anything.
//
// Robustness is part of the contract: request bodies are size-capped
// and validated before any work starts, runs execute under a
// per-request timeout, admission is a bounded slot pool that sheds
// overload with 429 + Retry-After, and Drain stops admission and
// waits out inflight runs for a clean SIGTERM exit.
package simd

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// MaxBodyBytes caps a POST body; a spec document is a few hundred
// bytes, so anything near the cap is garbage, not a big experiment.
const MaxBodyBytes = 64 << 10

// maxFailures bounds the failed-run status map; old failures age out
// in insertion order. Failures are advisory (a re-POST retries the
// run), so losing an old one costs an informative 500 at worst.
const maxFailures = 128

// Registry metrics for the service shell. The runner and both cache
// tiers report their own series; these cover what only the shell
// sees: admission, coalescing, and backend executions.
var (
	mRequests = obs.Default().CounterVec("repro_simd_requests_total",
		"HTTP requests served, by endpoint.", "endpoint")
	mShed = obs.Default().Counter("repro_simd_shed_total",
		"Submissions rejected with 429 because every run slot was taken.")
	mCoalesced = obs.Default().Counter("repro_simd_coalesced_total",
		"Submissions that joined an already-inflight identical run.")
	mExecuted = obs.Default().Counter("repro_simd_runs_total",
		"Backend runs actually executed (cache misses that went to the pool).")
)

// Config assembles a Server. Zero values get serviceable defaults.
type Config struct {
	// Runner executes cache-missing requests. The server does its own
	// caching (two tiers, keyed identically), so the runner should be
	// built with a nil cache; it contributes the bounded worker pool.
	// Nil means runner.New(0, nil).
	Runner *runner.Runner
	// Mem is the memory tier. Nil means cache.New(256).
	Mem *cache.LRU
	// Disk is the optional disk tier.
	Disk *disk.Store
	// Slots bounds concurrently admitted runs (inflight, including
	// those queued inside the runner's pool); submissions beyond it
	// are shed with 429. <= 0 means 64.
	Slots int
	// RunTimeout bounds one backend execution; 0 means no limit.
	RunTimeout time.Duration
	// BaseContext is the lifecycle context runs are launched under
	// (canceling it aborts inflight runs at their next phase
	// boundary). Nil means context.Background().
	BaseContext context.Context
	// Exec overrides the backend execution — the test seam for
	// counting or faking runs. Nil means Runner.DoUncached.
	Exec func(context.Context, bench.RunRequest) (*bench.RunResult, error)
}

// memEntry is what the memory tier stores: the done reply, encoded
// once for the content address (doneBody), the result's JSON as a span
// of it, and the request that produced it, so the render endpoint can
// re-derive presentation parameters without any side lookup. The
// entry's size is the body's length: the span and the request's few
// fields add nothing worth counting.
type memEntry struct {
	req    bench.RunRequest
	body   []byte
	result []byte
}

// newMemEntry wraps a result's JSON in its done body.
func newMemEntry(key cache.Key, req bench.RunRequest, experiment string, result []byte) *memEntry {
	body := doneBody(key, experiment, result)
	end := len(body) - len("}\n")
	return &memEntry{req: req, body: body, result: body[end-len(result) : end]}
}

// flight is one inflight run; submissions for the same content
// address share it. body is the done reply once the run succeeded.
type flight struct {
	req  bench.RunRequest
	done chan struct{}
	body []byte
	err  error
}

// Server is the run service. It implements http.Handler.
type Server struct {
	mux        *http.ServeMux
	r          *runner.Runner
	mem        *cache.LRU
	disk       *disk.Store
	slots      chan struct{}
	runTimeout time.Duration
	base       context.Context
	exec       func(context.Context, bench.RunRequest) (*bench.RunResult, error)

	mu        sync.Mutex
	inflight  map[cache.Key]*flight
	fails     map[cache.Key]string
	failOrder []cache.Key

	draining atomic.Bool
	wg       sync.WaitGroup
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	s := &Server{
		mux:        http.NewServeMux(),
		r:          cfg.Runner,
		mem:        cfg.Mem,
		disk:       cfg.Disk,
		runTimeout: cfg.RunTimeout,
		base:       cfg.BaseContext,
		exec:       cfg.Exec,
		inflight:   map[cache.Key]*flight{},
		fails:      map[cache.Key]string{},
	}
	if s.r == nil {
		s.r = runner.New(0, nil)
	}
	if s.mem == nil {
		s.mem = cache.New(256)
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = 64
	}
	s.slots = make(chan struct{}, slots)
	if s.base == nil {
		s.base = context.Background()
	}
	if s.exec == nil {
		s.exec = s.r.DoUncached
	}

	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{addr}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{addr}/render", s.handleRender)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	return s
}

// ServeHTTP dispatches to the service's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// versionInfo is the GET /v1/version payload: the HTTP API version and
// the runrequest canonical-encoding versions this server accepts —
// what a multi-node fan-out layer needs to know before routing a
// perturbed (v2-encoded) request at a replica.
type versionInfo struct {
	API                string `json:"api"`
	RunRequestVersions []int  `json:"runrequest_versions"`
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, versionInfo{
		API:                "v1",
		RunRequestVersions: []int{bench.RequestVersion, bench.RequestVersionPerturb},
	})
}

// Drain stops admitting new runs (readyz flips to 503, submissions
// get 503) and waits until every inflight run has finished or ctx
// expires — the SIGTERM half of a clean shutdown; the caller shuts
// the http.Server down around it.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runStatus is the JSON envelope every run endpoint speaks. A done
// reply carries the result as well; doneBody splices it in from its
// stored encoding.
type runStatus struct {
	Address    string `json:"address"`
	Experiment string `json:"experiment,omitempty"`
	Status     string `json:"status"` // running | failed
	Error      string `json:"error,omitempty"`
}

// doneBody is the done reply for a content address: the runStatus
// envelope around the result's stored JSON, byte for byte what
// json.Encoder gives the envelope with the result in it. A result is a
// pure function of its address, so the body is built once per entry —
// when its run finishes or its disk entry is promoted — and every
// later reply writes it as is.
func doneBody(key cache.Key, experiment string, result []byte) []byte {
	exp, _ := json.Marshal(experiment) // a string always encodes
	b := make([]byte, 0, len(result)+len(exp)+128)
	b = append(b, `{"address":"`...)
	b = hex.AppendEncode(b, key[:])
	b = append(b, '"')
	if experiment != "" {
		b = append(append(b, `,"experiment":`...), exp...)
	}
	b = append(append(b, `,"status":"done","result":`...), result...)
	return append(b, "}\n"...)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseSpec decodes a POST body as a scenario spec document: JSON if
// it leads with '{' (or the Content-Type says so), the YAML subset
// otherwise — the same two formats `scenario run` loads by file
// extension.
func parseSpec(body []byte, contentType string) (*scenario.Spec, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if bytes.HasPrefix(trimmed, []byte("{")) || contentType == "application/json" {
		return scenario.ParseJSON(body)
	}
	return scenario.Parse(body)
}

// resolveRequest turns a validated spec into the canonical request,
// rejecting the scenario-engine-only features a service run cannot
// honor: trace output has nowhere to go (and traced requests are
// uncacheable by design), and repro/assert are the engine's
// verification features, not run parameters.
func resolveRequest(spec *scenario.Spec) (bench.RunRequest, error) {
	var zero bench.RunRequest
	if spec.Trace {
		return zero, fmt.Errorf("trace runs are not servable (traced results bypass the cache; run `scenario run -trace` locally)")
	}
	if spec.Repro {
		return zero, fmt.Errorf("repro is a scenario-engine verification flag; the service does not honor it")
	}
	if len(spec.Assert) > 0 {
		return zero, fmt.Errorf("assertion bands are a scenario-engine feature; POST a plain run spec")
	}
	return spec.Request(), nil
}

// lookup consults both cache tiers under the coalescing lock
// discipline: the memory check and the inflight-map check happen
// under one lock hold, so a submission can never slip through the
// instant between a finishing run's cache insert and its inflight
// deregistration. Disk hits are promoted to memory.
func (s *Server) lookup(key cache.Key) (e *memEntry, fl *flight, failure string) {
	s.mu.Lock()
	if v, ok := s.mem.Get(key); ok {
		s.mu.Unlock()
		return v.(*memEntry), nil, ""
	}
	if fl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return nil, fl, ""
	}
	msg, failed := s.fails[key]
	s.mu.Unlock()
	if failed {
		return nil, nil, msg
	}
	return s.fromDisk(key), nil, ""
}

// fromDisk serves a key from the disk tier: the strict decode checks
// the entry, and its done body is promoted to memory (the decoded
// result is dropped). Any decode failure is treated as a miss — the disk
// store has already deleted files that fail its byte-level integrity
// checks, bench.DecodeEntry refuses an entry whose request is not the
// key's, and §7 determinism means a dropped entry is merely a re-run
// away (runOne rewrites the file).
func (s *Server) fromDisk(key cache.Key) *memEntry {
	if s.disk == nil {
		return nil
	}
	_, payload, ok := s.disk.Get(key)
	if !ok {
		return nil
	}
	req, res, result, err := bench.DecodeEntry(key, payload)
	if err != nil {
		return nil
	}
	e := newMemEntry(key, req, res.Experiment, result)
	s.mem.PutSized(key, e, int64(len(e.body)))
	return e
}

// handleSubmit is POST /v1/runs: validate, resolve the content
// address, and serve from cache, join the inflight run, or admit a
// new one. ?wait=1 blocks until the result is ready.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	mRequests.With("submit").Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBodyBytes)
		return
	}
	spec, err := parseSpec(body, r.Header.Get("Content-Type"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := resolveRequest(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := req.Key()
	addr := key.String()
	wait := r.URL.Query().Get("wait") == "1"

	e, fl, _ := s.lookup(key)
	if e != nil {
		respondDone(w, e.body)
		return
	}
	if fl != nil {
		mCoalesced.Inc()
		s.respondFlight(w, r, addr, fl, wait)
		return
	}

	// Not cached, not inflight (a recorded failure falls through to
	// here too: a re-POST is the retry path). Admit a new run.
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case s.slots <- struct{}{}:
	default:
		mShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all %d run slots busy", cap(s.slots))
		return
	}

	// Re-check under the lock: another submission may have admitted
	// this key between the lookup and the slot acquisition.
	s.mu.Lock()
	if v, ok := s.mem.Get(key); ok {
		s.mu.Unlock()
		<-s.slots
		respondDone(w, v.(*memEntry).body)
		return
	}
	if prior, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-s.slots
		mCoalesced.Inc()
		s.respondFlight(w, r, addr, prior, wait)
		return
	}
	delete(s.fails, key)
	fl = &flight{req: req, done: make(chan struct{})}
	s.inflight[key] = fl
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runOne(key, fl)
	s.respondFlight(w, r, addr, fl, wait)
}

// runOne executes one admitted run and publishes the outcome: disk
// first (no lock), then — under one lock hold — the memory insert and
// the inflight deregistration, so lookups always find the key in at
// least one of the two.
func (s *Server) runOne(key cache.Key, fl *flight) {
	defer s.wg.Done()
	defer func() { <-s.slots }()
	ctx := s.base
	if s.runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.runTimeout)
		defer cancel()
	}
	res, err := s.execRecovered(ctx, fl.req)
	mExecuted.Inc()

	var payload, result []byte
	if err == nil {
		// One encoding serves every reader: the disk file's payload
		// and, through the result's span of it, the done body.
		payload, result, err = bench.EncodeEntry(fl.req, res)
		if err != nil {
			err = fmt.Errorf("encoding the result: %w", err)
		}
	}
	var e *memEntry
	if err == nil {
		e = newMemEntry(key, fl.req, res.Experiment, result)
		fl.body = e.body
		if s.disk != nil {
			s.disk.Put(fl.req.Canonical(), payload)
		}
	}
	s.mu.Lock()
	if err == nil {
		s.mem.PutSized(key, e, int64(len(e.body)))
	} else {
		if len(s.failOrder) >= maxFailures {
			delete(s.fails, s.failOrder[0])
			s.failOrder = s.failOrder[1:]
		}
		s.fails[key] = err.Error()
		s.failOrder = append(s.failOrder, key)
	}
	delete(s.inflight, key)
	s.mu.Unlock()

	fl.err = err
	close(fl.done)
}

// execRecovered runs one execution and returns a panic in it as that
// run's error: the address is answered as failed (500), coalesced
// waiters are released, nothing is cached, and a re-POST runs it again.
// One bad run must not take down the server and every other run in it.
func (s *Server) execRecovered(ctx context.Context, req bench.RunRequest) (res *bench.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("run panicked: %v", p)
		}
	}()
	return s.exec(ctx, req)
}

// respondDone writes a done body (doneBody): every done reply — hot,
// cold, a coalesced waiter's, a status read — goes through here.
func respondDone(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// respondFlight answers a submission that maps to an inflight run:
// 202 with the address, or — with ?wait=1 — the final outcome.
func (s *Server) respondFlight(w http.ResponseWriter, r *http.Request, addr string, fl *flight, wait bool) {
	if !wait {
		writeJSON(w, http.StatusAccepted, runStatus{
			Address: addr, Experiment: fl.req.Experiment, Status: "running"})
		return
	}
	select {
	case <-fl.done:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "client went away while waiting")
		return
	}
	if fl.err != nil {
		writeJSON(w, http.StatusInternalServerError, runStatus{
			Address: addr, Experiment: fl.req.Experiment, Status: "failed", Error: fl.err.Error()})
		return
	}
	respondDone(w, fl.body)
}

// parseAddr decodes a 64-hex-char content address.
func parseAddr(addr string) (cache.Key, error) {
	var k cache.Key
	raw, err := hex.DecodeString(addr)
	if err != nil || len(raw) != len(k) {
		return k, fmt.Errorf("malformed address %q (want %d hex characters)", addr, 2*len(k))
	}
	copy(k[:], raw)
	return k, nil
}

// handleStatus is GET /v1/runs/{addr}. Replies spell the address
// the canonical way, lower-case hex, whatever case the path used.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	mRequests.With("status").Inc()
	key, err := parseAddr(r.PathValue("addr"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	addr := key.String()
	e, fl, failure := s.lookup(key)
	switch {
	case e != nil:
		respondDone(w, e.body)
	case fl != nil:
		writeJSON(w, http.StatusAccepted, runStatus{
			Address: addr, Experiment: fl.req.Experiment, Status: "running"})
	case failure != "":
		writeJSON(w, http.StatusInternalServerError, runStatus{
			Address: addr, Status: "failed", Error: failure})
	default:
		writeError(w, http.StatusNotFound, "unknown run %s", addr)
	}
}

// handleRender is GET /v1/runs/{addr}/render?view=<experiment>: the
// exact bench.PresentResult text of a finished run. The optional view
// parameter is a guard, not a selector — it must name the experiment
// the result belongs to (there is exactly one rendering per experiment).
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	mRequests.With("render").Inc()
	addr := r.PathValue("addr")
	key, err := parseAddr(addr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, fl, failure := s.lookup(key)
	switch {
	case fl != nil:
		writeError(w, http.StatusConflict, "run %s is still executing", addr)
		return
	case failure != "":
		writeError(w, http.StatusInternalServerError, "run %s failed: %s", addr, failure)
		return
	case e == nil:
		writeError(w, http.StatusNotFound, "unknown run %s", addr)
		return
	}
	if view := r.URL.Query().Get("view"); view != "" && view != e.req.Experiment {
		writeError(w, http.StatusBadRequest, "view %q does not match experiment %q", view, e.req.Experiment)
		return
	}
	res, err := bench.DecodeResult(e.result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := bench.PresentResult(&buf, e.req, res); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}
