package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/raceflag"
	"repro/internal/runner"
)

// execFunc is the type of Config.Exec.
type execFunc = func(context.Context, bench.RunRequest) (*bench.RunResult, error)

// countRuns returns an Exec that counts the backend runs the server
// launches in n and hands each to exec, or runs it for real as the
// server's default does when exec is nil.
func countRuns(n *atomic.Int64, exec execFunc) execFunc {
	if exec == nil {
		exec = runner.New(0, nil).DoUncached
	}
	return func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
		n.Add(1)
		return exec(ctx, req)
	}
}

// taskqSpec is the test corpus: a taskq run small enough to execute
// for real in the end-to-end tests.
const taskqSpec = `name: svc-test
experiment: app
app: taskq
n: 64
procs: [2]
`

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/x-yaml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// status is a decoded reply: the envelope and, for a done reply, the
// result in it.
type status struct {
	runStatus
	Result *bench.RunResult `json:"result"`
}

func decodeStatus(t *testing.T, b []byte) status {
	t.Helper()
	var st status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	return st
}

// TestEndToEnd drives the whole API against a real (tiny) run: submit
// with wait, re-fetch by address, render, and scrape /metrics.
func TestEndToEnd(t *testing.T) {
	var runs atomic.Int64
	srv := New(Config{Exec: countRuns(&runs, nil)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	st := decodeStatus(t, body)
	if st.Status != "done" || st.Result == nil || st.Experiment != "app" {
		t.Fatalf("submit envelope: %+v", st)
	}
	if runs.Load() != 1 {
		t.Fatalf("executed = %d after one run", runs.Load())
	}

	// A repeat submission is a pure cache hit: 200 immediately, no
	// second execution, byte-identical result JSON.
	code2, body2 := post(t, ts, "/v1/runs", taskqSpec)
	if code2 != http.StatusOK {
		t.Fatalf("repeat submit: %d %s", code2, body2)
	}
	if runs.Load() != 1 {
		t.Errorf("executed = %d after a cached repeat", runs.Load())
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached submission returned different bytes")
	}

	code, body, _ = get(t, ts, "/v1/runs/"+st.Address)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	if got := decodeStatus(t, body); got.Status != "done" || got.Result == nil {
		t.Fatalf("status envelope: %+v", got)
	}

	code, rendered, hdr := get(t, ts, "/v1/runs/"+st.Address+"/render?view=app")
	if code != http.StatusOK {
		t.Fatalf("render: %d %s", code, rendered)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("render content type = %q", ct)
	}
	var want bytes.Buffer
	req := bench.RunRequest{Experiment: "app", App: "taskq", N: 64, Procs: []int{2}}
	if err := bench.PresentResult(&want, req, st.Result); err != nil {
		t.Fatal(err)
	}
	if string(rendered) != want.String() {
		t.Errorf("render differs from PresentResult:\n--- got ---\n%s--- want ---\n%s", rendered, want.String())
	}

	code, metrics, _ := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, series := range []string{
		"repro_simd_requests_total", "repro_simd_runs_total",
		"repro_cache_bytes", "repro_runner_request_seconds",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _, _ := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s = %d", path, code)
		}
	}
}

// TestCoalescing is the dedup contract: N concurrent submissions of
// one request, exactly one backend execution, byte-identical bodies
// for every waiter.
func TestCoalescing(t *testing.T) {
	const workers = 16
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	srv := New(Config{
		Exec: countRuns(&runs, func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			close(started) // a second execution would close twice and panic
			<-release
			return &bench.RunResult{Experiment: req.Experiment,
				Metrics: map[string]float64{"probe": 42}}, nil
		}),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, workers)
	bodies := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = post(t, ts, "/v1/runs?wait=1", taskqSpec)
		}(i)
	}
	<-started
	// Every submission must be in (joined or waiting) before the run
	// finishes for the test to prove coalescing rather than caching;
	// a short settle keeps the race window honest without a hook into
	// the HTTP layer.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("executed = %d for %d identical submissions, want 1", got, workers)
	}
	for i := 0; i < workers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("worker %d: code %d body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("worker %d received different bytes", i)
		}
	}
}

// perturbedSpec is taskqSpec on a perturbed machine (runrequest/v2):
// every perturbation field, so the disk entry carries floats, link
// overrides and a jitter seed.
const perturbedSpec = taskqSpec + `machine:
  perturb:
    cpu: [1.3, 0.9]
    links:
      - from: 1
        to: 0
        latency_us: 170
    jitter_us: 2.5
    jitter_seed: 7
`

// table1Spec is a canned experiment at a tiny size.
const table1Spec = `name: svc-table1
experiment: table1
params:
  n: 64
  procs: 2
  steps: 2
`

// submitAndRender posts spec with wait, then renders the run by its
// address; both must succeed.
func submitAndRender(t *testing.T, ts *httptest.Server, spec string) (body, rendered []byte) {
	t.Helper()
	code, body := post(t, ts, "/v1/runs?wait=1", spec)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	addr := decodeStatus(t, body).Address
	code, rendered, _ = get(t, ts, "/v1/runs/"+addr+"/render")
	if code != http.StatusOK || len(rendered) == 0 {
		t.Fatalf("render: %d %s", code, rendered)
	}
	return body, rendered
}

// restart opens a fresh server — fresh memory tier, fresh counters —
// over the disk directory, as a new process would. It returns the
// server's backend run count with it.
func restart(t *testing.T, dir string) (*atomic.Int64, *httptest.Server) {
	t.Helper()
	d, err := disk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	runs := new(atomic.Int64)
	ts := httptest.NewServer(New(Config{Disk: d, Exec: countRuns(runs, nil)}))
	t.Cleanup(ts.Close)
	return runs, ts
}

// TestDiskColdStart is the restart contract: a fresh server over a
// warm disk directory serves the same submission byte-identically,
// and renders it identically, with zero backend executions — for an
// app run, a perturbed app run and a canned experiment.
func TestDiskColdStart(t *testing.T) {
	for name, spec := range map[string]string{
		"app":       taskqSpec,
		"perturbed": perturbedSpec,
		"table1":    table1Spec,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			runs1, ts1 := restart(t, dir)
			warm, warmRender := submitAndRender(t, ts1, spec)
			if runs1.Load() != 1 {
				t.Fatalf("warming executed = %d", runs1.Load())
			}

			runs2, ts2 := restart(t, dir)
			cold, coldRender := submitAndRender(t, ts2, spec)
			if got := runs2.Load(); got != 0 {
				t.Fatalf("cold start executed %d backend runs, want 0", got)
			}
			if !bytes.Equal(warm, cold) {
				t.Errorf("cold-start bytes differ from the original run:\n--- warm ---\n%s--- cold ---\n%s", warm, cold)
			}
			if !bytes.Equal(warmRender, coldRender) {
				t.Errorf("cold-start render differs:\n--- warm ---\n%s--- cold ---\n%s", warmRender, coldRender)
			}
		})
	}
}

// TestDiskUnservableEntryRerun plants entries the disk store itself
// accepts but the service must not serve: an older result-only
// payload, and an entry whose request is not the one its key names.
// Each is a miss: one run, the file rewritten, and after a second
// restart the run is served from disk with zero executions.
func TestDiskUnservableEntryRerun(t *testing.T) {
	spec, err := parseSpec([]byte(taskqSpec), "")
	if err != nil {
		t.Fatal(err)
	}
	req, err := resolveRequest(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := &bench.RunResult{Experiment: "app", Metrics: map[string]float64{"planted": 1}}
	resultOnly, err := bench.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	other := req
	other.N = 128
	wrongKey, _, err := bench.EncodeEntry(other, res)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"result only": resultOnly,
		"wrong key":   wrongKey,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := disk.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Put(req.Canonical(), payload); err != nil {
				t.Fatal(err)
			}

			runs1, ts1 := restart(t, dir)
			first, _ := submitAndRender(t, ts1, taskqSpec)
			if got := runs1.Load(); got != 1 {
				t.Fatalf("unservable entry: executed = %d, want 1", got)
			}
			if decodeStatus(t, first).Result.Metrics["planted"] != 0 {
				t.Fatal("the planted result was served")
			}
			d2, err := disk.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, stored, ok := d2.Get(req.Key())
			if !ok {
				t.Fatal("entry not rewritten")
			}
			if _, _, _, err := bench.DecodeEntry(req.Key(), stored); err != nil {
				t.Fatalf("rewritten entry: %v", err)
			}

			runs2, ts2 := restart(t, dir)
			second, _ := submitAndRender(t, ts2, taskqSpec)
			if got := runs2.Load(); got != 0 {
				t.Fatalf("rewritten entry: executed = %d, want 0", got)
			}
			if !bytes.Equal(first, second) {
				t.Error("rewritten entry serves different bytes")
			}
		})
	}
}

// TestLoadShedding fills the only run slot and checks the next
// distinct submission is shed with 429 + Retry-After.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{
		Slots: 1,
		Exec: func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			<-release
			return &bench.RunResult{Experiment: req.Experiment}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs", taskqSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	other := strings.Replace(taskqSpec, "n: 64", "n: 128", 1)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/x-yaml", strings.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	// An identical submission coalesces instead of shedding: joining
	// an inflight run needs no slot.
	if code, body := post(t, ts, "/v1/runs", taskqSpec); code != http.StatusAccepted {
		t.Errorf("identical submit during load = %d %s, want 202", code, body)
	}
	close(release)
}

// TestDrain starts a run, drains, and checks the drain waits for it
// while new submissions and readiness flip to 503.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	var finished atomic.Bool
	srv := New(Config{
		Exec: func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			<-release
			finished.Store(true)
			return &bench.RunResult{Experiment: req.Experiment}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, body := post(t, ts, "/v1/runs", taskqSpec); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Draining: not ready, not accepting.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if code, _, _ := get(t, ts, "/readyz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	other := strings.Replace(taskqSpec, "n: 64", "n: 256", 1)
	if code, _ := post(t, ts, "/v1/runs", other); code != http.StatusServiceUnavailable {
		t.Errorf("submission during drain = %d, want 503", code)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) before the inflight run finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drain never returned")
	}
	if !finished.Load() {
		t.Error("drain returned before the run completed")
	}
}

// TestValidation checks the request gate: malformed bodies, engine
// flags, bad addresses, unknown runs.
func TestValidation(t *testing.T) {
	var runs atomic.Int64
	srv := New(Config{
		Exec: countRuns(&runs, func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			return &bench.RunResult{Experiment: req.Experiment}, nil
		}),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", "", http.StatusBadRequest},
		{"unknown key", "name: x\nexperiment: table1\nbogus: 1\n", http.StatusBadRequest},
		{"unknown experiment", "name: x\nexperiment: table9\n", http.StatusBadRequest},
		{"trace flag", "name: x\nexperiment: app\napp: taskq\nn: 64\ntrace: true\n", http.StatusBadRequest},
		{"repro flag", "name: x\nexperiment: table1\nrepro: true\n", http.StatusBadRequest},
		{"assert bands", "name: x\nexperiment: table1\nassert:\n  - metric: m\n    min: 1\n", http.StatusBadRequest},
		{"oversized", "name: x\n# " + strings.Repeat("a", MaxBodyBytes) + "\n", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if code, body := post(t, ts, "/v1/runs", tc.body); code != tc.want {
			t.Errorf("%s: code %d body %s, want %d", tc.name, code, body, tc.want)
		}
	}
	if runs.Load() != 0 {
		t.Errorf("executed = %d; invalid submissions must start nothing", runs.Load())
	}

	if code, _, _ := get(t, ts, "/v1/runs/nothex"); code != http.StatusBadRequest {
		t.Errorf("malformed address = %d, want 400", code)
	}
	absent := cache.KeyOf([]byte("absent")).String()
	if code, _, _ := get(t, ts, "/v1/runs/"+absent); code != http.StatusNotFound {
		t.Errorf("unknown address = %d, want 404", code)
	}
	if code, _, _ := get(t, ts, "/v1/runs/"+absent+"/render"); code != http.StatusNotFound {
		t.Errorf("unknown render = %d, want 404", code)
	}
	// JSON bodies work too; mismatch between view and experiment is a 400.
	code, body := post(t, ts, "/v1/runs?wait=1",
		`{"name":"j","experiment":"app","app":"taskq","n":64,"procs":[2]}`)
	if code != http.StatusOK {
		t.Fatalf("JSON submit: %d %s", code, body)
	}
	st := decodeStatus(t, body)
	if code, _, _ := get(t, ts, "/v1/runs/"+st.Address+"/render?view=table1"); code != http.StatusBadRequest {
		t.Errorf("mismatched view = %d, want 400", code)
	}
	// An address is read in either case and always answered in its
	// canonical lower-case spelling: the done body is stored once.
	code, upper, _ := get(t, ts, "/v1/runs/"+strings.ToUpper(st.Address))
	if code != http.StatusOK || !bytes.Equal(upper, body) {
		t.Errorf("upper-case address: %d %s, want 200 and the submit's body %s", code, upper, body)
	}
}

// TestFailedRunReported checks a failing backend surfaces as a 500
// status and that a re-submission retries it.
func TestFailedRunReported(t *testing.T) {
	calls := 0
	srv := New(Config{
		Exec: func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			calls++
			if calls == 1 {
				return nil, fmt.Errorf("synthetic failure")
			}
			return &bench.RunResult{Experiment: req.Experiment}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	if code != http.StatusInternalServerError {
		t.Fatalf("failing run: %d %s", code, body)
	}
	st := decodeStatus(t, body)
	if st.Status != "failed" || !strings.Contains(st.Error, "synthetic failure") {
		t.Fatalf("failure envelope: %+v", st)
	}
	if code, _, _ := get(t, ts, "/v1/runs/"+st.Address); code != http.StatusInternalServerError {
		t.Errorf("failed status = %d, want 500", code)
	}
	// Retry path: a fresh POST re-runs and succeeds.
	if code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec); code != http.StatusOK {
		t.Errorf("retry: %d %s", code, body)
	}
}

// TestPanickingRunFails checks a run whose execution panics is
// answered as failed to its waiters, leaves the server up, caches
// nothing, and runs again on a re-submission.
func TestPanickingRunFails(t *testing.T) {
	var calls atomic.Int32
	srv := New(Config{
		Exec: func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			if calls.Add(1) == 1 {
				panic("synthetic panic")
			}
			return &bench.RunResult{Experiment: req.Experiment}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	st := decodeStatus(t, body)
	if code != http.StatusInternalServerError || st.Status != "failed" ||
		!strings.Contains(st.Error, "synthetic panic") {
		t.Fatalf("panicking run: %d %s", code, body)
	}
	if code, _, _ := get(t, ts, "/v1/runs/"+st.Address); code != http.StatusInternalServerError {
		t.Errorf("failed status = %d, want 500", code)
	}
	if code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec); code != http.StatusOK {
		t.Errorf("re-submission: %d %s", code, body)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d executions, want 2 (the panic cached nothing)", n)
	}
	if code, _, _ := get(t, ts, "/v1/runs/"+st.Address); code != http.StatusOK {
		t.Errorf("status after the re-run = %d, want 200", code)
	}
}

// TestUnencodableResultFails checks a result JSON cannot carry (a NaN
// metric) is reported as a failed run, not served as an empty 200.
func TestUnencodableResultFails(t *testing.T) {
	srv := New(Config{
		Exec: func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
			return &bench.RunResult{Experiment: req.Experiment,
				Metrics: map[string]float64{"nan": math.NaN()}}, nil
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	if st := decodeStatus(t, body); code != http.StatusInternalServerError ||
		st.Status != "failed" || !strings.Contains(st.Error, "encoding the result") {
		t.Fatalf("unencodable result: %d %s", code, body)
	}
}

// TestVersionEndpoint checks GET /v1/version: the negotiation surface
// a client reads before choosing a request encoding, reporting the API
// generation and both accepted runrequest schema versions.
func TestVersionEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body, hdr := get(t, ts, "/v1/version")
	if code != http.StatusOK {
		t.Fatalf("%d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var v versionInfo
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if v.API != "v1" {
		t.Errorf("api = %q, want v1", v.API)
	}
	want := []int{bench.RequestVersion, bench.RequestVersionPerturb}
	if len(v.RunRequestVersions) != 2 || v.RunRequestVersions[0] != want[0] || v.RunRequestVersions[1] != want[1] {
		t.Errorf("runrequest_versions = %v, want %v", v.RunRequestVersions, want)
	}
}

// TestUnprefixedAliases checks the pre-/v1/ paths are gone: the
// versioned routes serve a run and its render, while the unprefixed
// spellings of every route answer 404.
func TestUnprefixedAliases(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	st := decodeStatus(t, body)
	if st.Status != "done" || st.Result == nil {
		t.Fatalf("submit envelope: %+v", st)
	}
	if code, _ := post(t, ts, "/runs?wait=1", taskqSpec); code != http.StatusNotFound {
		t.Errorf("POST /runs: %d, want 404", code)
	}
	for _, suffix := range []string{"", "/render?view=app"} {
		if code, body, _ := get(t, ts, "/v1/runs/"+st.Address+suffix); code != http.StatusOK {
			t.Errorf("/v1/runs/<addr>%s: %d %s", suffix, code, body)
		}
		if code, _, _ := get(t, ts, "/runs/"+st.Address+suffix); code != http.StatusNotFound {
			t.Errorf("/runs/<addr>%s: %d, want 404", suffix, code)
		}
	}
	if code, _, _ := get(t, ts, "/version"); code != http.StatusNotFound {
		t.Errorf("/version: %d, want 404", code)
	}
}

// TestPerturbedRunOverHTTP submits a runrequest/v2-encoding scenario —
// a 30% straggler — end to end: the service must run it, cache it
// under its v2 content address, and keep it distinct from the
// unperturbed run of the same workload.
func TestPerturbedRunOverHTTP(t *testing.T) {
	perturbed := taskqSpec + "machine:\n  perturb:\n    cpu: [1.3]\n"
	var runs atomic.Int64
	srv := New(Config{Exec: countRuns(&runs, nil)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	if code != http.StatusOK {
		t.Fatalf("baseline submit: %d %s", code, body)
	}
	base := decodeStatus(t, body)

	code, body = post(t, ts, "/v1/runs?wait=1", perturbed)
	if code != http.StatusOK {
		t.Fatalf("perturbed submit: %d %s", code, body)
	}
	pert := decodeStatus(t, body)
	if pert.Status != "done" || pert.Result == nil {
		t.Fatalf("perturbed envelope: %+v", pert)
	}
	if pert.Address == base.Address {
		t.Error("perturbed run shares a content address with the baseline")
	}
	if runs.Load() != 2 {
		t.Errorf("executed = %d, want 2 (distinct addresses, distinct runs)", runs.Load())
	}
}

// encodeDone is the oracle for a done reply: the envelope with the
// result in it, through json.NewEncoder — how every done reply was
// once produced.
func encodeDone(t *testing.T, addr string, res *bench.RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		Address    string           `json:"address"`
		Experiment string           `json:"experiment,omitempty"`
		Status     string           `json:"status"`
		Result     *bench.RunResult `json:"result,omitempty"`
	}{addr, res.Experiment, "done", res})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDoneBodyEveryPath drives one address through every way a done
// reply is produced — the miss waiter, a hot hit, a status read, a
// disk promotion after memory eviction, and a cold start over the same
// directory — and requires each body to be the oracle's bytes for the
// result the run returned.
func TestDoneBodyEveryPath(t *testing.T) {
	dir := t.TempDir()
	r := runner.New(1, nil)
	var mu sync.Mutex
	results := map[cache.Key]*bench.RunResult{}
	runs := 0
	newServer := func() *httptest.Server {
		d, err := disk.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Mem: cache.New(1), Disk: d,
			Exec: func(ctx context.Context, req bench.RunRequest) (*bench.RunResult, error) {
				res, err := r.DoUncached(ctx, req)
				mu.Lock()
				results[req.Key()] = res
				runs++
				mu.Unlock()
				return res, err
			}})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}
	ts := newServer()
	code, miss := post(t, ts, "/v1/runs?wait=1", taskqSpec)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, miss)
	}
	addr := decodeStatus(t, miss).Address
	key, err := parseAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeDone(t, addr, results[key])

	bodies := map[string][]byte{"miss waiter": miss}
	_, bodies["hot hit"] = post(t, ts, "/v1/runs", taskqSpec)
	_, bodies["status"], _ = get(t, ts, "/v1/runs/"+addr)
	// A memory tier of one entry: another run evicts the address, so
	// the next submission promotes it from disk.
	if code, body := post(t, ts, "/v1/runs?wait=1", table1Spec); code != http.StatusOK {
		t.Fatalf("evicting submit: %d %s", code, body)
	}
	_, bodies["disk promotion"] = post(t, ts, "/v1/runs", taskqSpec)
	_, bodies["cold start"] = post(t, newServer(), "/v1/runs", taskqSpec)
	_, bodies["cold status"], _ = get(t, newServer(), "/v1/runs/"+addr)

	for path, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from the encoder's:\n--- got ---\n%s--- want ---\n%s", path, body, want)
		}
	}
	if runs != 2 {
		t.Errorf("executed %d runs, want 2 (the address and the evicting run)", runs)
	}
}

// TestMemTierSizedByBody pins the memory tier's byte count to what it
// holds: after a disk promotion and a fresh run, the resident bytes are
// the two done bodies, so repro_cache_bytes{tier="memory"} reports the
// tier's footprint.
func TestMemTierSizedByBody(t *testing.T) {
	dir := t.TempDir()
	_, warm := restart(t, dir)
	if code, body := post(t, warm, "/v1/runs?wait=1", taskqSpec); code != http.StatusOK {
		t.Fatalf("warming submit: %d %s", code, body)
	}
	d, err := disk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := cache.New(4)
	ts := httptest.NewServer(New(Config{Mem: mem, Disk: d}))
	t.Cleanup(ts.Close)
	_, promoted := post(t, ts, "/v1/runs", taskqSpec)
	code, ran := post(t, ts, "/v1/runs?wait=1", perturbedSpec)
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, ran)
	}
	st := mem.Stats()
	if want := int64(len(promoted) + len(ran)); st.Entries != 2 || st.Bytes != want {
		t.Errorf("memory tier holds %d entries of %d bytes, want 2 of %d (the done bodies)", st.Entries, st.Bytes, want)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a handler's
// allocations are its own.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestHotHitAllocsIndependentOfResult pins that a hot hit writes stored
// bytes: its allocations are the same for a result of one app row and
// one of hundreds.
func TestHotHitAllocsIndependentOfResult(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	hitAllocs := func(rows int) float64 {
		res := &bench.RunResult{Experiment: "app", Metrics: map[string]float64{"m": 1}}
		for i := range rows {
			r := &apps.Result{System: "tmk", TimeSec: float64(i) / 7, Messages: int64(i),
				Detail: map[string]float64{"inspector_s": 0.5, "scan_s": float64(i)}}
			res.Apps = append(res.Apps, &bench.AppResults{App: "taskq", Label: fmt.Sprint(i),
				Config: "procs=2", VariantSet: &apps.VariantSet{Seq: r, Chaos: r, Base: r, Opt: r}})
		}
		var runs atomic.Int64
		srv := New(Config{Exec: countRuns(&runs, func(context.Context, bench.RunRequest) (*bench.RunResult, error) {
			return res, nil
		})})
		serve := func(target string) *discardWriter {
			w := &discardWriter{h: http.Header{}}
			srv.ServeHTTP(w, httptest.NewRequest("POST", target, strings.NewReader(taskqSpec)))
			return w
		}
		serve("/v1/runs?wait=1")
		if runs.Load() != 1 {
			t.Fatalf("priming executed %d runs", runs.Load())
		}
		return testing.AllocsPerRun(50, func() { serve("/v1/runs") })
	}
	small, large := hitAllocs(1), hitAllocs(300)
	if large != small {
		t.Errorf("a hot hit allocates %v times for 300 app rows, %v for one", large, small)
	}
}
