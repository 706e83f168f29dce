package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/cache/disk"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/rsd"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simd"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// The layer probes: fixed-input drivers of each layer's public
// functions, in the shapes of the repository's own Benchmark*
// functions. They do not depend on the workload or the seed, so every
// traced run reports the same ledger and a layer's number can be read
// next to the workload it should move.

// prober sizes and collects the probes.
type prober struct {
	batches int // timed batches per probe; the median is reported
	scale   int // divisor of every operation count (1, or large for -quick)
	out     map[string]metric
}

func (pr *prober) ops(n int) int { return max(n/pr.scale, 1) }

// nsPer is how many nanoseconds each reporting unit holds.
var nsPer = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// per divides a recorded probe by the number of events one timed
// operation stands for (messages per round, processors per cycle).
func (pr *prober) per(name string, events float64) {
	m := pr.out[name]
	m.Value /= events
	pr.out[name] = m
}

// time runs batch(n) pr.batches times and records the median time per
// operation, in the unit given ("ns", "us" or "ms").
func (pr *prober) time(name, unit string, n int, batch func(n int)) {
	n = pr.ops(n)
	var s sample
	for b := 0; b < pr.batches; b++ {
		t0 := time.Now()
		batch(n)
		s = append(s, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	pr.out[name] = metric{s.median() / nsPer[unit], unit}
}

// allocs records heap allocations per operation of one batch.
func (pr *prober) allocs(name string, n int, batch func(n int)) {
	n = pr.ops(n)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	batch(n)
	runtime.ReadMemStats(&ms)
	pr.out[name] = metric{float64(ms.Mallocs-before) / float64(n), "count"}
}

// runProbes measures every layer probe.
func runProbes(quick bool) map[string]metric {
	pr := &prober{batches: 21, scale: 1, out: map[string]metric{}}
	if quick {
		pr.batches, pr.scale = 2, 64
	}
	pr.simProbes()
	pr.vmDiffProbes()
	pr.tmkCoreProbes()
	pr.chaosProbes()
	pr.serviceProbes()
	return pr.out
}

const simProcs = 16

func (pr *prober) simProbes() {
	allToAll := func(cfg sim.Config) func(rounds int) {
		return func(rounds int) {
			sim.NewCluster(cfg).Run(func(p *sim.Proc) {
				for i := 0; i < rounds; i++ {
					for q := 0; q < simProcs; q++ {
						if q != p.ID() {
							p.Send(q, "xall", i, nil, 64)
						}
					}
					p.RecvEach("xall", i, simProcs-1, nil)
					p.Advance(1)
				}
			})
		}
	}
	perMsg := func(name string) { pr.per(name, simProcs*(simProcs-1)) }
	uniform := sim.DefaultConfig(simProcs)
	pr.time("sim.delivery_ns_per_msg", "ns", 200, allToAll(uniform))
	perMsg("sim.delivery_ns_per_msg")
	pr.allocs("sim.allocs_per_msg", 200, allToAll(uniform))
	perMsg("sim.allocs_per_msg")
	perturbed := sim.DefaultConfig(simProcs)
	perturbed.Perturb = &sim.Perturb{
		CPUFactor:  []float64{1.3},
		Links:      []sim.LinkPerturb{{From: 0, To: 1, LatencyUS: 170, BytesPerUS: 20}},
		JitterUS:   5,
		JitterSeed: 7,
	}
	pr.time("sim.delivery_perturbed_ns_per_msg", "ns", 200, allToAll(perturbed))
	perMsg("sim.delivery_perturbed_ns_per_msg")

	// One fully contended acquire/hold/release cycle per processor.
	pr.time("sim.arbiter_ns_per_grant", "ns", 400, func(cycles int) {
		sim.NewCluster(sim.DefaultConfig(simProcs)).Run(func(p *sim.Proc) {
			for i := 0; i < cycles; i++ {
				if free := p.AcquireResource(1, p.Clock(), nil); free > p.Clock() {
					p.AdvanceTo(free)
				}
				p.Advance(10)
				p.ReleaseResource(1, p.Clock())
			}
		})
	})
	pr.per("sim.arbiter_ns_per_grant", simProcs)

	pr.time("sim.barrier_ns_per_round", "ns", 1000, func(rounds int) {
		sim.NewCluster(sim.DefaultConfig(simProcs)).Run(func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				p.BarrierExchange(1, nil, 0, nil)
			}
		})
	})
}

var sink float64

func (pr *prober) vmDiffProbes() {
	// 16 MB per space: the page copies stream through memory the way
	// SealInit's do at paper scale, not out of the last-level cache.
	arena := vm.NewArena(4096, 16<<20)
	addr := arena.Alloc(16 << 20)
	src, dst := vm.NewSpace(arena, vm.ReadWrite), vm.NewSpace(arena, vm.ReadWrite)
	pr.time("vm.read_ns", "ns", 1<<20, func(n int) {
		for i := 0; i < n; i++ {
			sink += src.ReadF64(addr + vm.Addr((i%1024)*8))
		}
	})
	pr.time("vm.write_ns", "ns", 1<<20, func(n int) {
		for i := 0; i < n; i++ {
			src.WriteF64(addr+vm.Addr((i%1024)*8), 1.0)
		}
	})
	pages := arena.NumPages()
	pr.time("vm.copy_page_ns", "ns", pages, func(n int) {
		for i := 0; i < n; i++ {
			dst.CopyPageFrom(src, vm.PageID(i%pages))
		}
	})

	twin := make([]byte, 4096)
	sparse := append([]byte(nil), twin...)
	for i := 0; i < 4096; i += 128 {
		sparse[i] = 1
	}
	dense := make([]byte, 4096)
	for i := range dense {
		dense[i] = byte(i)
	}
	encode := func(cur []byte) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				diff.Encode(twin, cur, 8)
			}
		}
	}
	pr.time("diff.encode_sparse_ns", "ns", 20000, encode(sparse))
	pr.time("diff.encode_dense_ns", "ns", 20000, encode(dense))
	pr.allocs("diff.allocs_per_encode", 20000, encode(sparse))
	d := diff.Encode(twin, dense, 8)
	page := diff.Twin(twin)
	pr.time("diff.apply_ns", "ns", 100000, func(n int) {
		for i := 0; i < n; i++ {
			d.Apply(page)
		}
	})
}

func (pr *prober) tmkCoreProbes() {
	// Set-up of one DSM episode at paper scale per processor count:
	// 16 address spaces, each receiving processor 0's 8 MB image.
	const sealBytes = 8 << 20
	fewer := *pr // each batch allocates 128 MB; nine are enough
	fewer.batches = min(pr.batches, 9)
	fewer.time("tmk.new_seal_ms", "ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			d := tmk.New(sim.NewCluster(sim.DefaultConfig(simProcs)), 4096, sealBytes/pr.scale)
			d.Alloc(sealBytes / pr.scale)
			d.SealInit()
			d.Close()
		}
	})

	pr.time("tmk.fault_fetch_us", "us", 2000, func(rounds int) {
		cl := sim.NewCluster(sim.DefaultConfig(2))
		d := tmk.New(cl, 4096, 1<<22)
		addr := d.Alloc(8 * 512)
		d.SealInit()
		cl.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			for i := 0; i < rounds; i++ {
				if p.ID() == 0 {
					n.Space().WriteF64(addr, float64(i))
				}
				n.Barrier(1)
				if p.ID() == 1 {
					sink += n.Space().ReadF64(addr) // fault + diff fetch
				}
				n.Barrier(2)
			}
		})
		d.Close()
	})
	pr.time("tmk.barrier8_us", "us", 2000, func(rounds int) {
		cl := sim.NewCluster(sim.DefaultConfig(8))
		d := tmk.New(cl, 4096, 1<<20)
		d.SealInit()
		cl.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			for i := 0; i < rounds; i++ {
				n.Barrier(1)
			}
		})
		d.Close()
	})
	// A migratory counter: every hand-off ships the previous holder's
	// write notice and the next holder faults the page in.
	pr.time("tmk.lock_handoff_us", "us", 300, func(rounds int) {
		cl := sim.NewCluster(sim.DefaultConfig(8))
		d := tmk.New(cl, 4096, 1<<20)
		addr := d.Alloc(8)
		d.SealInit()
		cl.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			for i := 0; i < rounds; i++ {
				n.AcquireLock(1)
				n.Space().WriteF64(addr, n.Space().ReadF64(addr)+1)
				n.ReleaseLock(1)
			}
		})
		d.Close()
	})
	pr.per("tmk.lock_handoff_us", 8)

	cl := sim.NewCluster(sim.DefaultConfig(2))
	d := tmk.New(cl, 4096, 1<<22)
	data := &core.Array{Name: "d", Base: d.Alloc(8 * 4096), ElemSize: 8, Len: 4096}
	idx := &core.Array{Name: "i", Base: d.Alloc(4 * 4096), ElemSize: 4, Len: 4096}
	s0 := d.Node(0).Space()
	for i := 0; i < 4096; i++ {
		s0.WriteI32(idx.Addr(i), int32(i*7%4096))
	}
	d.SealInit()
	desc := core.Desc{Type: core.Indirect, Data: data, Indir: idx,
		Section: rsd.Range1(0, 4095), Access: core.Read, Sched: 1}
	pr.time("core.validate_first_us", "us", 50, func(n int) {
		for i := 0; i < n; i++ {
			core.NewRuntime(d.Node(0)).Validate(desc)
		}
	})
	rt := core.NewRuntime(d.Node(0))
	rt.Validate(desc)
	pr.time("core.validate_revalidate_ns", "ns", 2000, func(n int) {
		for i := 0; i < n; i++ {
			rt.Validate(desc)
		}
	})
}

func (pr *prober) chaosProbes() {
	const n, procs = 8192, 8
	globals := make([]int, 64*1024/pr.scale)
	for i := range globals {
		globals[i] = (i * 31) % n
	}
	part := chaos.Block(n, procs)
	replicated := chaos.NewTransTable(part, chaos.Replicated)
	pr.time("chaos.inspect_ms", "ms", 1, func(reps int) {
		for i := 0; i < reps; i++ {
			sim.NewCluster(sim.DefaultConfig(procs)).Run(func(p *sim.Proc) {
				chaos.Inspect(p, i, globals, replicated, chaos.DefaultInspectorCost())
			})
		}
	})
	coords := make([][3]float64, 4096/pr.scale)
	for i := range coords {
		for k := range coords[i] {
			coords[i][k] = float64(splitmix64(uint64(3*i+k))%(1<<20)) / (1 << 20)
		}
	}
	pr.time("chaos.rcb_ms", "ms", 1, func(reps int) {
		for i := 0; i < reps; i++ {
			chaos.RCB(coords, procs)
		}
	})
	distributed := chaos.NewTransTable(part, chaos.Distributed)
	pr.time("chaos.lookup_batch_us", "us", 4, func(reps int) {
		sim.NewCluster(sim.DefaultConfig(procs)).Run(func(p *sim.Proc) {
			for i := 0; i < reps; i++ {
				distributed.LookupBatch(p, globals)
			}
		})
	})
	pr.per("chaos.lookup_batch_us", procs)
}

// mustOK stops the run on an error a probe's fixed input cannot cause.
func mustOK(err error) {
	if err != nil {
		panic("perf: probe fixture failed: " + err.Error())
	}
}

func (pr *prober) serviceProbes() {
	ctx := context.Background()
	docs, err := loadDocs("service_mix")
	mustOK(err)
	body := seeded(docs[1].body, 1)
	var spec *scenario.Spec
	pr.time("scenario.parse_us", "us", 500, func(n int) {
		for i := 0; i < n; i++ {
			spec, err = scenario.Parse(body)
		}
	})
	mustOK(err)
	var req bench.RunRequest
	pr.time("scenario.request_us", "us", 20000, func(n int) {
		for i := 0; i < n; i++ {
			req = spec.Request()
		}
	})
	pr.time("bench.key_us", "us", 2000, func(n int) {
		for i := 0; i < n; i++ {
			req.Key()
		}
	})
	res, err := bench.Run(ctx, req)
	mustOK(err)
	var payload []byte
	pr.time("bench.encode_result_us", "us", 200, func(n int) {
		for i := 0; i < n; i++ {
			payload, err = bench.EncodeResult(res)
		}
	})
	mustOK(err)
	pr.time("bench.decode_result_us", "us", 200, func(n int) {
		for i := 0; i < n; i++ {
			_, err = bench.DecodeResult(payload)
		}
	})
	mustOK(err)
	pr.time("bench.present_us", "us", 500, func(n int) {
		for i := 0; i < n; i++ {
			err = bench.PresentResult(io.Discard, req, res)
		}
	})
	mustOK(err)

	// Memory tier at capacity: a hit, and an insert that evicts.
	lru := cache.New(memTierEntries)
	keyOf := func(i int) cache.Key { return cache.KeyOf([]byte{byte(i), byte(i >> 8), byte(i >> 16)}) }
	for i := 0; i < memTierEntries; i++ {
		lru.PutSized(keyOf(i), res, int64(len(payload)))
	}
	hot := keyOf(memTierEntries - 1)
	pr.time("cache.get_ns", "ns", 200000, func(n int) {
		for i := 0; i < n; i++ {
			lru.Get(hot)
		}
	})
	next := memTierEntries
	pr.time("cache.put_evict_ns", "ns", 50000, func(n int) {
		for i := 0; i < n; i++ {
			lru.PutSized(keyOf(next), res, int64(len(payload)))
			next++
		}
	})
	hitRunner := runner.New(1, cache.New(8))
	_, err = hitRunner.Do(ctx, req)
	mustOK(err)
	pr.time("runner.hit_overhead_us", "us", 5000, func(n int) {
		for i := 0; i < n; i++ {
			hitRunner.Do(ctx, req)
		}
	})

	// Disk tier: a real entry read and written, and a reopen over a
	// directory the size of the service workload's primed set.
	dir, err := os.MkdirTemp(".", ".perf-tmp-")
	mustOK(err)
	defer os.RemoveAll(dir)
	store, err := disk.Open(dir, 0)
	mustOK(err)
	entries := primedAddrs / pr.scale
	canon := func(i int) []byte {
		r := req
		r.Seed = int64(i + 1)
		return r.Canonical()
	}
	var key cache.Key
	for i := 0; i < entries; i++ {
		key, err = store.Put(canon(i), payload)
		mustOK(err)
	}
	pr.time("disk.get_us", "us", 300, func(n int) {
		for i := 0; i < n; i++ {
			store.Get(key)
		}
	})
	seq := entries
	pr.time("disk.put_us", "us", 100, func(n int) {
		for i := 0; i < n; i++ {
			store.Put(canon(seq), payload)
			seq++
		}
	})
	pr.time("disk.open_ms", "ms", 1, func(n int) {
		for i := 0; i < n; i++ {
			_, err = disk.Open(dir, 0)
		}
	})
	mustOK(err)

	pr.handlerProbes(docs)
	pr.runnerObsProbes(ctx)
}

// handlerProbes times simd's submit handler on a response recorder,
// one class at a time, and the same hot request over loopback HTTP.
func (pr *prober) handlerProbes(docs []doc) {
	dir, err := os.MkdirTemp(".", ".perf-tmp-")
	mustOK(err)
	defer os.RemoveAll(dir)
	store, err := disk.Open(dir, 0)
	mustOK(err)
	srv := simd.New(simd.Config{Runner: runner.New(0, nil), Mem: cache.New(memTierEntries), Disk: store})
	serve := func(body []byte) float64 {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/x-yaml")
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, r)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		if w.Code != http.StatusOK {
			panic("perf: handler probe got status " + http.StatusText(w.Code))
		}
		return us
	}
	// Twice the memory tier: every first submission is a miss, and the
	// first half has left the memory tier by the time the last is in.
	n := max(2*memTierEntries/pr.scale, 2)
	bodies := make([][]byte, n)
	var miss, cold, hot sample
	for i := range bodies {
		bodies[i] = seeded(docs[i%len(docs)].body, int64(i+1))
		miss = append(miss, serve(bodies[i]))
	}
	for i := 0; i < n/2; i++ {
		cold = append(cold, serve(bodies[i]))
	}
	for i := 0; i < pr.ops(400); i++ {
		hot = append(hot, serve(bodies[n/2-1]))
	}
	pr.out["simd.handler_miss_us"] = metric{miss.median(), "us"}
	pr.out["simd.handler_cold_us"] = metric{cold.median(), "us"}
	pr.out["simd.handler_hot_us"] = metric{hot.median(), "us"}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	var client sample
	for i := 0; i < pr.ops(400); i++ {
		t0 := time.Now()
		resp, err := ts.Client().Post(ts.URL+"/v1/runs?wait=1", "application/x-yaml", bytes.NewReader(bodies[n/2-1]))
		mustOK(err)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		client = append(client, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	pr.out["simd.http_overhead_us"] = metric{client.median() - hot.median(), "us"}
}

// runnerObsProbes measures what cross-run parallelism buys on this
// host (informational: it is the host's core count as much as the
// runner's doing) and what asking for a simulated-event trace costs.
func (pr *prober) runnerObsProbes(ctx context.Context) {
	reqs := make([]bench.RunRequest, 4)
	for i := range reqs {
		reqs[i] = bench.RunRequest{Experiment: "app", App: "moldyn", N: 256 / min(pr.scale, 2),
			Steps: 4, Seed: int64(i + 1), Procs: []int{4}}
	}
	batchAt := func(workers int) float64 {
		var s sample
		for b := 0; b < min(pr.batches, 5); b++ {
			t0 := time.Now()
			_, err := runner.New(workers, nil).RunBatch(ctx, reqs)
			mustOK(err)
			s = append(s, time.Since(t0).Seconds())
		}
		return s.median()
	}
	pr.out["runner.parallel_speedup"] = metric{batchAt(1) / batchAt(runtime.NumCPU()), "ratio"}

	taskq := bench.RunRequest{Experiment: "app", App: "taskq", N: 1024 / min(pr.scale, 8), Seed: 1, Procs: []int{16}}
	var traceKB float64
	runAt := func(trace bool) float64 {
		taskq.Trace = trace
		var s sample
		for b := 0; b < min(pr.batches, 5); b++ {
			t0 := time.Now()
			res, err := bench.Run(ctx, taskq)
			mustOK(err)
			s = append(s, time.Since(t0).Seconds())
			if trace {
				traceKB = float64(len(res.Trace)) / 1e3
			}
		}
		return s.median()
	}
	off := runAt(false)
	pr.out["obs.trace_on_ratio"] = metric{runAt(true) / off, "ratio"}
	pr.out["obs.trace_kb"] = metric{traceKB, "KB"}
}
