package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/raceflag"
)

// benchmarkFile is BENCHMARK.json as the tests read it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) (benchmarkFile, string) {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf, root
}

func TestBenchmarkFileShape(t *testing.T) {
	bf, root := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the benchmark runs %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics (want 1..16)", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics (want 1..128)", n)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range bf.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	for _, m := range bf.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", bf.RunSeconds, defaultSeconds)
	}
	for _, p := range bf.Paths {
		if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
}

// TestQuickRunsEmitEveryMetric runs every workload at test scale in
// both modes and holds the emitted metrics against BENCHMARK.json.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	bf, _ := loadBenchmarkFile(t)
	t.Chdir(t.TempDir()) // temporary directories and span files land here
	start := time.Now()
	for _, w := range workloadNames {
		for _, mode := range []struct {
			trace bool
			specs []metricSpec
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			res, err := runWorkload(options{workload: w, seed: 3, seconds: 0.1, trace: mode.trace, quick: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.specs) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w, mode.trace, len(res.Metrics), len(mode.specs))
			}
			for _, spec := range mode.specs {
				m, ok := res.Metrics[spec.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w, mode.trace, spec.Name)
				case m.Unit != spec.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, spec.Name, m.Unit, spec.Unit)
				case !mode.trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, spec.Name, m.Value)
				}
			}
			if mode.trace {
				if _, err := os.Stat(spanPath(options{workload: w})); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
		}
	}
	if took := time.Since(start); !raceflag.Enabled && took > 30*time.Second {
		t.Errorf("quick runs took %v; test scale has grown too large", took)
	}
}

func TestFingerprintsRepeatAndFollowTheSeed(t *testing.T) {
	t.Chdir(t.TempDir())
	prints := func(seed int64) []string {
		var out []string
		for _, w := range workloadNames {
			if !isBatch(w) {
				continue
			}
			b, err := setupBatch(w, seed, true)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b.want...)
		}
		s, err := setupService(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		return append(out, s.primedFingerprint())
	}
	a, again, other := prints(1), prints(1), prints(2)
	for i := range a {
		if a[i] != again[i] {
			t.Errorf("fingerprint %d differs between two runs of one seed", i)
		}
		if a[i] == other[i] {
			t.Errorf("fingerprint %d is the same under seeds 1 and 2", i)
		}
	}
}

func TestCommittedFingerprintsCoverTheSeeds(t *testing.T) {
	var all map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != committedSeeds {
		t.Fatalf("%d seeds committed, want %d", len(all), committedSeeds)
	}
	if errs := checkCommitted("lock_scaling", 1, []string{"1-taskq"}, []string{"bogus"}); len(errs) != 1 {
		t.Errorf("a wrong fingerprint gave %d errors, want 1", len(errs))
	}
	if errs := checkCommitted("lock_scaling", committedSeeds+1, []string{"1-taskq"}, []string{"bogus"}); errs != nil {
		t.Errorf("an uncommitted seed was checked: %v", errs)
	}
}

func TestPercentileRule(t *testing.T) {
	var s sample
	for i := 1; i <= 999; i++ {
		s = append(s, float64(i))
	}
	if _, ok := s.percentile(99); ok {
		t.Error("p99 of 999 samples reported with fewer than 10 samples beyond it")
	}
	s = append(s, 1000)
	if v, ok := s.percentile(99); !ok || v < 990 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v, %v", v, ok)
	}
	if hp := s.highestPercentile(); hp != 99 {
		t.Errorf("highest percentile of 1000 samples = %v, want 99", hp)
	}
	if hp := (sample{1, 2, 3}).highestPercentile(); hp != 0 {
		t.Errorf("highest percentile of 3 samples = %v, want none", hp)
	}
	if m := (sample{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	// statistics.quantiles([70, 130, 100, 85, 115], n=4) == [77.5, 100.0, 122.5]
	if q1, q3 := (sample{70, 130, 100, 85, 115}).quartiles(); q1 != 77.5 || q3 != 122.5 {
		t.Errorf("quartiles = %v, %v, want 77.5, 122.5", q1, q3)
	}
	if sp := (sample{90, 100, 110, 100, 100}).spread(); sp != 0.1 {
		t.Errorf("spread = %v, want 0.1 (quartiles 95 and 105 around 100)", sp)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "layer.a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "layer.b", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Name: "layer.a", StartNS: 50, EndNS: 60},
		{ID: 5, Name: "request", StartNS: 100, EndNS: 130},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"request": 20 + 30, "layer.a": 30 + 10, "layer.b": 40} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	var rec *recorder
	rec.end(rec.start("off", 0, 0)) // a nil recorder records nothing
}

func TestCompareVerdict(t *testing.T) {
	steady := sample{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name  string
		a, b  sample
		lower bool
		want  string
	}{
		{"same", steady, steady, true, "within bound"},
		{"slower", steady, sample{120, 121, 119, 120, 120}, true, "regression"},
		{"faster", steady, sample{80, 81, 79, 80, 80}, true, "within bound"},
		{"less throughput", steady, sample{80, 81, 79, 80, 80}, false, "regression"},
		{"noisy", steady, sample{70, 130, 100, 85, 115}, true, "unresolved"},
		{"noisy but all better", sample{100, 140, 120, 110, 130}, sample{50, 52, 51, 50, 51}, true, "within bound"},
	} {
		if got := verdict(tc.a, tc.b, tc.lower, 0.10); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
