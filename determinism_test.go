// Cross-backend determinism stress: every application and backend must
// produce byte-identical (simulated time, messages, bytes) triples on
// repeated runs — the property the tables and their golden CI diff rely
// on. Run under -race in CI, this doubles as a scheduler-stress harness
// for the ordering core in internal/sim.
package repro

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/nbf"
	"repro/internal/apps/spmv"
	"repro/internal/apps/taskq"
	"repro/internal/apps/tsp"
	"repro/internal/cache"
	"repro/internal/raceflag"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// triple is the exact-comparison record: raw float64 bits for the time
// so "close" can never pass as "equal".
type triple struct {
	timeBits uint64
	msgs     int64
	dataBits uint64
}

func tripleOf(r *apps.Result) triple {
	return triple{
		timeBits: math.Float64bits(r.TimeSec),
		msgs:     r.Messages,
		dataBits: math.Float64bits(r.DataMB),
	}
}

func stress(t *testing.T, name string, runs int, run func() *apps.Result) {
	t.Helper()
	ref := run()
	refT := tripleOf(ref)
	for i := 1; i < runs; i++ {
		r := run()
		if got := tripleOf(r); got != refT {
			t.Errorf("%s run %d: (%v, %d, %v) != reference (%v, %d, %v)",
				name, i, r.TimeSec, r.Messages, r.DataMB,
				ref.TimeSec, ref.Messages, ref.DataMB)
			return
		}
		if err := apps.VerifyEqual(ref, r); err != nil {
			t.Errorf("%s run %d: state diverged: %v", name, i, err)
			return
		}
		// The synchronization grid (wait/hold floats included) is part
		// of the byte-identical contract for lock-based backends.
		if len(r.Locks) != len(ref.Locks) {
			t.Errorf("%s run %d: %d lock cells != reference %d", name, i, len(r.Locks), len(ref.Locks))
			return
		}
		for k, v := range ref.Locks {
			if r.Locks[k] != v {
				t.Errorf("%s run %d: lock cell %+v = %+v != reference %+v", name, i, k, r.Locks[k], v)
				return
			}
		}
		// The footprint report — every (category, proc) cell and the
		// per-processor peaks — is byte-identical too (DESIGN.md §9).
		if len(r.Mem) != len(ref.Mem) {
			t.Errorf("%s run %d: %d mem cells != reference %d", name, i, len(r.Mem), len(ref.Mem))
			return
		}
		for k, v := range ref.Mem {
			if r.Mem[k] != v {
				t.Errorf("%s run %d: mem cell %+v = %+v != reference %+v", name, i, k, r.Mem[k], v)
				return
			}
		}
		for pi, v := range ref.MemPeak {
			if r.MemPeak[pi] != v {
				t.Errorf("%s run %d: proc %d footprint %+v != reference %+v", name, i, pi, r.MemPeak[pi], v)
				return
			}
		}
	}
}

func TestMoldynByteIdenticalAcrossRuns(t *testing.T) {
	p := moldyn.DefaultParams(128, 4)
	p.Steps = 6
	p.UpdateEvery = 2
	w := moldyn.Generate(p)
	stress(t, "moldyn/chaos", 4, func() *apps.Result { return moldyn.RunChaos(w) })
	stress(t, "moldyn/tmk", 4, func() *apps.Result { return moldyn.RunTmk(w, moldyn.BuildImage(w), moldyn.TmkOptions{}) })
	stress(t, "moldyn/tmk-opt", 4, func() *apps.Result {
		return moldyn.RunTmk(w, moldyn.BuildImage(w), moldyn.TmkOptions{Optimized: true})
	})
}

func TestNBFByteIdenticalAcrossRuns(t *testing.T) {
	p := nbf.DefaultParams(512, 4)
	p.Steps = 4
	p.Partners = 24
	w := nbf.Generate(p)
	stress(t, "nbf/chaos", 4, func() *apps.Result { return nbf.RunChaos(w) })
	stress(t, "nbf/tmk", 4, func() *apps.Result { return nbf.RunTmk(w, nbf.BuildImage(w), nbf.TmkOptions{}) })
	stress(t, "nbf/tmk-opt", 4, func() *apps.Result {
		return nbf.RunTmk(w, nbf.BuildImage(w), nbf.TmkOptions{Optimized: true})
	})
}

func TestSpmvByteIdenticalAcrossRuns(t *testing.T) {
	p := spmv.DefaultParams(1024, 4)
	p.Steps = 4
	w := spmv.Generate(p)
	stress(t, "spmv/chaos", 4, func() *apps.Result { return spmv.RunChaos(w) })
	stress(t, "spmv/tmk", 4, func() *apps.Result { return spmv.RunTmk(w, spmv.BuildImage(w), spmv.TmkOptions{}) })
	stress(t, "spmv/tmk-opt", 4, func() *apps.Result {
		return spmv.RunTmk(w, spmv.BuildImage(w), spmv.TmkOptions{Optimized: true})
	})
}

// TestTaskqByteIdenticalAcrossRuns is the arbiter contention stress:
// every item claim is one lock acquire, so at 8+ processors the grant
// chain is hundreds of quiescence decisions long, each a chance for a
// real-time ordering leak to change the simulated times. Run under
// -race in CI, the per-run goroutine interleaving varies wildly; the
// triples, final state, and lock grids must not.
//
// The 32-processor leg is the sharded-scheduler ledger stress
// (DESIGN.md §10): with 32 goroutines the per-processor mailbox shards,
// the atomic quiescence counter, and the SyncStats/MemStats recording
// points under arbMu see maximal concurrency, so a recording path that
// escaped the documented locking contract shows up here as a race
// report or a diverging grid.
func TestTaskqByteIdenticalAcrossRuns(t *testing.T) {
	for _, procs := range []int{8, 16, 32} {
		runs := 4
		if procs == 32 {
			runs = 3 // the leg exists for shard/ledger races; trim the repeat cost
		}
		p := taskq.DefaultParams(240, procs)
		w := taskq.Generate(p)
		tag := func(sys string) string { return fmt.Sprintf("taskq/%s@%dp", sys, procs) }
		stress(t, tag("mp"), runs, func() *apps.Result { return taskq.RunMP(w) })
		stress(t, tag("tmk"), runs, func() *apps.Result { return taskq.RunTmk(w, taskq.BuildImage(w), taskq.TmkOptions{}) })
		stress(t, tag("tmk-batch"), runs, func() *apps.Result {
			return taskq.RunTmk(w, taskq.BuildImage(w), taskq.TmkOptions{Batched: true})
		})
	}
}

// TestScenariosByteIdenticalAcrossRuns is the perturbation
// determinism leg: every scenarios/perturb spec (runrequest/v2
// requests) runs with Repro set, so scenario.RunCtx re-runs it through
// the cache and uncached and byte-diffs rendering and metrics — a
// run-to-run difference is a test failure here and a non-zero exit in
// `scenario run -repro`. The golden specs (scenarios/*.yaml) carry
// repro: true and run in cmd/scenario's TestGoldenScenarios. That test
// skips under -race, so under -race this one runs the two cheapest
// golden specs and one perturbation spec instead: the detector makes
// each full-table render ~10x slower, and the stress tests above
// already race the same backend code paths.
func TestScenariosByteIdenticalAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario renders; skipped with -short")
	}
	racedOK := map[string]bool{"table4": true, "latency": true, "perturb-straggler": true}
	golden, err := scenario.Files("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	files, err := scenario.Files("scenarios/perturb")
	if err != nil {
		t.Fatal(err)
	}
	if raceflag.Enabled {
		files = append(golden, files...)
	}
	r := runner.New(0, cache.New(128))
	for _, f := range files {
		spec, err := scenario.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if raceflag.Enabled && !racedOK[spec.Name] {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			spec.Repro = true
			out, err := scenario.RunCtx(context.Background(), r, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range out.Violations {
				t.Errorf("%s: %s", f, v)
			}
		})
	}
}

// TestTspByteIdenticalAcrossRuns stresses the two-lock case (queue +
// bound) where a grant of one lock changes which processor next
// requests the other.
func TestTspByteIdenticalAcrossRuns(t *testing.T) {
	p := tsp.DefaultParams(10, 8)
	w := tsp.Generate(p)
	stress(t, "tsp/mp", 4, func() *apps.Result { return tsp.RunMP(w) })
	stress(t, "tsp/tmk", 4, func() *apps.Result { return tsp.RunTmk(w, tsp.BuildImage(w), tsp.TmkOptions{}) })
	stress(t, "tsp/tmk-batch", 4, func() *apps.Result {
		return tsp.RunTmk(w, tsp.BuildImage(w), tsp.TmkOptions{Batched: true})
	})
}
