package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_ops_total", "ops")
	for range 5 {
		c.Inc()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("repro_test_depth", "depth")
	g.Add(3.5)
	g.Inc()
	g.Dec()
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_test_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("repro_test_dup_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("0bad name", "x")
}

// TestHistogramBucketBoundaries pins the le semantics at the edges: a
// value exactly on a bound lands in that bound's bucket (le is <=),
// values beyond the last bound land in +Inf, and the cumulative
// rendering sums correctly.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("repro_test_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{
		0.5, // below first bound -> bucket le=1
		1,   // exactly on a bound -> le=1, not le=2
		2,   // exactly on the middle bound -> le=2
		3,   // between bounds -> le=4
		4,   // exactly on the last bound -> le=4
		5,   // beyond the last bound -> +Inf only
	} {
		h.Observe(v)
	}
	counts, sum, count := h.snapshot()
	want := []uint64{2, 1, 2, 1} // per-bucket (non-cumulative): le1, le2, le4, +Inf
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if count != 6 || sum != 15.5 {
		t.Errorf("count=%d sum=%v, want 6 and 15.5", count, sum)
	}

	text := r.Text()
	for _, want := range []string{
		`repro_test_seconds_bucket{le="1"} 2`,
		`repro_test_seconds_bucket{le="2"} 3`,
		`repro_test_seconds_bucket{le="4"} 5`,
		`repro_test_seconds_bucket{le="+Inf"} 6`,
		`repro_test_seconds_sum 15.5`,
		`repro_test_seconds_count 6`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramUnsortedBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	r.Histogram("repro_test_bad_seconds", "x", []float64{1, 1, 2})
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("repro_test_runs_total", "runs", "experiment")
	v.With("table1").Inc()
	v.With("app").Inc()
	v.With("table1").Inc()
	v.With("table1").Inc()
	text := r.Text()
	for _, want := range []string{
		`repro_test_runs_total{experiment="app"} 1`,
		`repro_test_runs_total{experiment="table1"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Series render sorted by label value: app before table1.
	if strings.Index(text, `"app"`) > strings.Index(text, `"table1"`) {
		t.Errorf("series not sorted:\n%s", text)
	}
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("repro_test_arity_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("repro_test_weird", "x", "k")
	v.With(`a"b\c` + "\nd").Inc()
	text := r.Text()
	if !strings.Contains(text, `{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", text)
	}
}

// TestTextDeterministic renders the registry twice and requires equal
// bytes — families and series are sorted, not map-ordered.
func TestTextDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("repro_test_det_total", "x", "l")
	for _, l := range []string{"c", "a", "b"} {
		v.With(l).Inc()
	}
	r.Gauge("repro_test_det_g", "x").Inc()
	if a, b := r.Text(), r.Text(); a != b {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestRegistryConcurrency hammers every metric type from many
// goroutines while WriteText renders — the -race leg is the assertion.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("repro_test_conc_total", "x")
	g := r.Gauge("repro_test_conc_g", "x")
	h := r.Histogram("repro_test_conc_seconds", "x", DefLatencyBuckets())
	v := r.CounterVec("repro_test_conc_vec_total", "x", "worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Dec()
				h.Observe(float64(i) / 1000)
				v.With(lbl).Inc()
				if i%100 == 0 {
					_ = r.Text()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	text := r.Text()
	if !strings.Contains(text, "repro_test_conc_seconds_count 8000") {
		t.Errorf("histogram count wrong:\n%s", text)
	}
}

func TestDefaultRegistryShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() is not a singleton")
	}
}
