package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkArbiter/procs=2-8    	     100	       882.1 ns/op	     122 B/op	       4 allocs/op
BenchmarkArbiter/procs=2-8    	     100	      1236 ns/op	     121 B/op	       4 allocs/op
BenchmarkArbiter/procs=2-8    	     100	       840.8 ns/op	     121 B/op	       4 allocs/op
BenchmarkArbiter/procs=16-8   	     100	     18299 ns/op	     946 B/op	      32 allocs/op
BenchmarkArbiter/procs=16-8   	     100	     22522 ns/op	     946 B/op	      32 allocs/op
BenchmarkArbiter/procs=16-8   	     100	     14799 ns/op	     946 B/op	      32 allocs/op
BenchmarkArbiterUncontended 	     100	       199.8 ns/op	      62 B/op	       2 allocs/op
PASS
pkg: repro
BenchmarkStatsCountSharded-8  	     100	        55.5 ns/op
ok  	repro	0.029s
`

func TestParseBenchStripsSuffixAndCollectsSamples(t *testing.T) {
	samples, cpu, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	if got := len(samples["BenchmarkArbiter/procs=2"]); got != 3 {
		t.Errorf("procs=2 samples = %d, want 3", got)
	}
	if got := len(samples["BenchmarkArbiterUncontended"]); got != 1 {
		t.Errorf("uncontended samples = %d, want 1 (no GOMAXPROCS suffix case)", got)
	}
	if got := samples["BenchmarkStatsCountSharded"]; len(got) != 1 || got[0] != 55.5 {
		t.Errorf("sharded samples = %v, want [55.5]", got)
	}
	if _, ok := samples["BenchmarkArbiter/procs=2-8"]; ok {
		t.Error("GOMAXPROCS suffix not stripped")
	}
}

func TestSummarizeTakesMinima(t *testing.T) {
	s := Summarize(map[string][]float64{
		"a": {30, 10, 20},
		"b": {40, 15.5, 20, 30},
	})
	if s.Schema != Schema {
		t.Errorf("schema = %q", s.Schema)
	}
	if got := s.Benchmarks["a"].NsPerOp; got != 10 {
		t.Errorf("a min = %v, want 10", got)
	}
	if got := s.Benchmarks["b"].NsPerOp; got != 15.5 {
		t.Errorf("b min = %v, want 15.5", got)
	}
	if got := s.Benchmarks["b"].Samples; got != 4 {
		t.Errorf("b samples = %d, want 4", got)
	}
}

func snap(entries map[string]float64) Snapshot {
	s := Snapshot{Schema: Schema, Benchmarks: map[string]Entry{}}
	for k, v := range entries {
		s.Benchmarks[k] = Entry{NsPerOp: v, Samples: 6}
	}
	return s
}

func TestCompareWithinRatioPasses(t *testing.T) {
	base := snap(map[string]float64{"a": 100, "b": 200})
	cur := snap(map[string]float64{"a": 125, "b": 150, "c": 7}) // +25%, -25%, new
	var out strings.Builder
	if failures := Compare(&out, base, cur, 1.30); failures != nil {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if !strings.Contains(out.String(), "(new)") {
		t.Error("new benchmark not reported")
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := snap(map[string]float64{"a": 100})
	cur := snap(map[string]float64{"a": 131})
	var out strings.Builder
	failures := Compare(&out, base, cur, 1.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "a:") {
		t.Fatalf("failures = %v, want one for a", failures)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Error("table does not flag the regression")
	}
}

func TestFilterKeepsMatchingNames(t *testing.T) {
	s := snap(map[string]float64{
		"BenchmarkArbiter/procs=2":    100,
		"BenchmarkSimdLoad/workers=8": 500,
	})
	s.CPU = "test cpu"
	got := Filter(s, regexp.MustCompile(`^BenchmarkSimdLoad`))
	if len(got.Benchmarks) != 1 {
		t.Fatalf("filtered to %d entries, want 1", len(got.Benchmarks))
	}
	if _, ok := got.Benchmarks["BenchmarkSimdLoad/workers=8"]; !ok {
		t.Error("matching entry dropped")
	}
	if got.CPU != "test cpu" {
		t.Error("metadata not carried through the filter")
	}
	if len(s.Benchmarks) != 2 {
		t.Error("Filter mutated its input")
	}
}

func TestMergeOverlaysCurrentOntoOld(t *testing.T) {
	old := snap(map[string]float64{"a": 100, "b": 200})
	old.CPU, old.Note = "old cpu", "old note"
	cur := snap(map[string]float64{"b": 150, "c": 7})
	got := Merge(old, cur)
	if got.Benchmarks["a"].NsPerOp != 100 {
		t.Error("entry only in old was lost")
	}
	if got.Benchmarks["b"].NsPerOp != 150 {
		t.Error("current entry did not override old")
	}
	if got.Benchmarks["c"].NsPerOp != 7 {
		t.Error("entry only in current was lost")
	}
	if got.CPU != "old cpu" || got.Note != "old note" {
		t.Errorf("empty current metadata should keep old's; got cpu=%q note=%q", got.CPU, got.Note)
	}
	cur.CPU = "new cpu"
	if Merge(old, cur).CPU != "new cpu" {
		t.Error("set current CPU should win over old")
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := snap(map[string]float64{"a": 100, "gone": 50})
	cur := snap(map[string]float64{"a": 100})
	var out strings.Builder
	failures := Compare(&out, base, cur, 1.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "gone") {
		t.Fatalf("failures = %v, want one for the missing benchmark", failures)
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Error("table does not flag the missing benchmark")
	}
}
