package runner

import (
	"context"
	"testing"

	"repro/internal/bench"
)

// ciTableRequests is the determinism leg's full table set at CI size —
// the workload `scenario run -j` parallelizes.
func ciTableRequests() []bench.RunRequest {
	var reqs []bench.RunRequest
	for _, c := range []struct {
		name   string
		params map[string]int
	}{
		{"table1", map[string]int{"n": 512, "steps": 10}},
		{"table2", map[string]int{"scale": 2, "steps": 4, "partners": 40}},
		{"table3", map[string]int{"n": 2048, "steps": 4}},
		{"table4", map[string]int{"cities": 9, "items": 256}},
		{"table5", nil},
	} {
		req, err := bench.Request(c.name, c.params)
		if err != nil {
			panic(err)
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// BenchmarkTableSweep measures the full CI-size table sweep through a
// one-worker pool versus a GOMAXPROCS pool (cache disabled, so every
// iteration simulates). The serial/parallel ratio is the `-j` wall
// clock claim; BENCH_sim.json records both legs. Run it with
// -benchtime=1x: one iteration is the whole five-table sweep.
func BenchmarkTableSweep(b *testing.B) {
	for _, leg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := New(leg.workers, nil)
				if _, err := r.RunBatch(context.Background(), ciTableRequests()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
