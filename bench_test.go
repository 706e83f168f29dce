// Package repro's benchmark harness: one benchmark per table row group
// of the paper's evaluation (§5, Tables 1 and 2) plus protocol
// micro-benchmarks. The table benchmarks run scaled-down workloads (the
// full sweeps are scenarios/table1.yaml and table2.yaml) and report the simulated
// metrics — simulated seconds ("sim-s"), messages, and megabytes — as
// custom benchmark metrics alongside the real Go run time.
package repro

import (
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/nbf"
	"repro/internal/apps/spmv"
	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// report attaches the simulated metrics to the benchmark output.
func report(b *testing.B, r *apps.Result) {
	b.ReportMetric(r.TimeSec, "sim-s")
	b.ReportMetric(float64(r.Messages), "sim-msgs")
	b.ReportMetric(r.DataMB, "sim-MB")
}

// --- Table 1: moldyn (benchmarks per system at update interval 20,
// plus the update-frequency rows for the optimized system) ---

func moldynParams(update int) moldyn.Params {
	p := moldyn.DefaultParams(512, 8)
	p.Steps = 20
	p.UpdateEvery = update
	return p
}

func BenchmarkTable1MoldynSequential(b *testing.B) {
	w := moldyn.Generate(moldynParams(10))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = moldyn.RunSequential(w)
	}
	report(b, r)
}

func BenchmarkTable1MoldynChaos(b *testing.B) {
	w := moldyn.Generate(moldynParams(10))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = moldyn.RunChaos(w)
	}
	report(b, r)
}

func BenchmarkTable1MoldynTmkBase(b *testing.B) {
	w := moldyn.Generate(moldynParams(10))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = moldyn.RunTmk(w, moldyn.BuildImage(w), moldyn.TmkOptions{})
	}
	report(b, r)
}

func BenchmarkTable1MoldynTmkOpt(b *testing.B) {
	w := moldyn.Generate(moldynParams(10))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = moldyn.RunTmk(w, moldyn.BuildImage(w), moldyn.TmkOptions{Optimized: true})
	}
	report(b, r)
}

func BenchmarkTable1MoldynTmkOptUpdate5(b *testing.B) {
	w := moldyn.Generate(moldynParams(5))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = moldyn.RunTmk(w, moldyn.BuildImage(w), moldyn.TmkOptions{Optimized: true})
	}
	report(b, r)
}

// --- Table 2: nbf ---

func nbfParams(n int) nbf.Params {
	p := nbf.DefaultParams(n, 8)
	p.Steps = 10
	p.Partners = 50
	return p
}

func BenchmarkTable2NBFSequential(b *testing.B) {
	w := nbf.Generate(nbfParams(4 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = nbf.RunSequential(w)
	}
	report(b, r)
}

func BenchmarkTable2NBFChaos(b *testing.B) {
	w := nbf.Generate(nbfParams(4 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = nbf.RunChaos(w)
	}
	report(b, r)
}

func BenchmarkTable2NBFTmkBase(b *testing.B) {
	w := nbf.Generate(nbfParams(4 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = nbf.RunTmk(w, nbf.BuildImage(w), nbf.TmkOptions{})
	}
	report(b, r)
}

func BenchmarkTable2NBFTmkOpt(b *testing.B) {
	w := nbf.Generate(nbfParams(4 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = nbf.RunTmk(w, nbf.BuildImage(w), nbf.TmkOptions{Optimized: true})
	}
	report(b, r)
}

func BenchmarkTable2NBFTmkOptFalseSharing(b *testing.B) {
	w := nbf.Generate(nbfParams(4 * 1000)) // misaligned: the 64x1000 analogue
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = nbf.RunTmk(w, nbf.BuildImage(w), nbf.TmkOptions{Optimized: true})
	}
	report(b, r)
}

// --- Table 3: spmv ---

func spmvParams(n int) spmv.Params {
	p := spmv.DefaultParams(n, 8)
	p.Steps = 8
	p.NNZRow = 16
	return p
}

func BenchmarkTable3SpmvSequential(b *testing.B) {
	w := spmv.Generate(spmvParams(8 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = spmv.RunSequential(w)
	}
	report(b, r)
}

func BenchmarkTable3SpmvChaos(b *testing.B) {
	w := spmv.Generate(spmvParams(8 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = spmv.RunChaos(w)
	}
	report(b, r)
}

func BenchmarkTable3SpmvTmkBase(b *testing.B) {
	w := spmv.Generate(spmvParams(8 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = spmv.RunTmk(w, spmv.BuildImage(w), spmv.TmkOptions{})
	}
	report(b, r)
}

func BenchmarkTable3SpmvTmkOpt(b *testing.B) {
	w := spmv.Generate(spmvParams(8 * 1024))
	var r *apps.Result
	for i := 0; i < b.N; i++ {
		r = spmv.RunTmk(w, spmv.BuildImage(w), spmv.TmkOptions{Optimized: true})
	}
	report(b, r)
}

// --- Protocol micro-benchmarks ---

// BenchmarkBarrier8 measures the 8-processor barrier round.
func BenchmarkBarrier8(b *testing.B) {
	cl := sim.NewCluster(sim.DefaultConfig(8))
	d := tmk.New(cl, 4096, 1<<20)
	d.SealInit()
	b.ResetTimer()
	cl.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for i := 0; i < b.N; i++ {
			n.Barrier(1)
		}
	})
}

// BenchmarkStatsCountSharded measures the traffic-counter hot path with
// per-processor shards (CountP), the layout every message path uses:
// each goroutine hits its own mutex and cache line, so the counters
// scale instead of serializing.
func BenchmarkStatsCountSharded(b *testing.B) {
	s := &sim.NewCluster(sim.DefaultConfig(8)).Stats
	var ids atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(ids.Add(1)-1) % 8
		for pb.Next() {
			s.CountP(id, "tmk.diff", 2, 4096)
		}
	})
}

// BenchmarkRCB measures the recursive coordinate bisection partitioner.
func BenchmarkRCB(b *testing.B) {
	w := moldyn.Generate(moldyn.DefaultParams(4096, 8))
	coords := moldyn.Coords(w.X0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chaos.RCB(coords, 8)
	}
}

// BenchmarkInteractionRebuild measures the paper-era O(N^2) list build.
func BenchmarkInteractionRebuild(b *testing.B) {
	p := moldyn.DefaultParams(1024, 8)
	w := moldyn.Generate(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moldyn.BuildPairs(&w.P, w.L, w.X0, 1, 0)
	}
}

// BenchmarkTwinAndDiff measures the multiple-writer machinery end to
// end: write-fault twin creation, interval close with diff encoding, and
// remote application.
func BenchmarkTwinAndDiff(b *testing.B) {
	cl := sim.NewCluster(sim.DefaultConfig(2))
	d := tmk.New(cl, 4096, 1<<22)
	addr := d.Alloc(4096 * 4)
	d.SealInit()
	b.ResetTimer()
	cl.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for i := 0; i < b.N; i++ {
			if p.ID() == 0 {
				for pg := 0; pg < 4; pg++ {
					n.Space().WriteF64(addr+vm.Addr(4096*pg+8*(i%64)), float64(i))
				}
			}
			n.Barrier(1)
			if p.ID() == 1 {
				for pg := 0; pg < 4; pg++ {
					_ = n.Space().ReadF64(addr + vm.Addr(4096*pg))
				}
			}
			n.Barrier(2)
		}
	})
}
