package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/runner"
)

// batchRun is one set-up of a batch workload: the seeded requests, a
// one-worker uncached runner (every request simulates), and the
// warm-up iteration's results, which every later iteration must
// reproduce bit for bit.
type batchRun struct {
	workload string
	names    []string
	reqs     []bench.RunRequest
	r        *runner.Runner
	base     []*bench.RunResult
	want     []string // fingerprints of base
}

// fingerprint is the SHA-256 of a result's canonical JSON encoding.
func fingerprint(res *bench.RunResult) (string, error) {
	payload, err := bench.EncodeResult(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// setupBatch loads the corpus, resolves the requests and runs the
// untimed warm-up iteration. All of it is set-up time.
func setupBatch(workload string, seed int64, quick bool) (*batchRun, error) {
	docs, err := loadDocs(workload)
	if err != nil {
		return nil, err
	}
	b := &batchRun{workload: workload, r: runner.New(1, nil)}
	for _, d := range docs {
		req, err := requestOf(seeded(d.body, seed))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %v", workload, d.name, err)
		}
		if quick {
			shrink(&req)
		}
		b.names = append(b.names, d.name)
		b.reqs = append(b.reqs, req)
	}
	for i, req := range b.reqs {
		res, err := b.r.Do(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %v", workload, b.names[i], err)
		}
		fp, err := fingerprint(res)
		if err != nil {
			return nil, err
		}
		b.base = append(b.base, res)
		b.want = append(b.want, fp)
	}
	return b, nil
}

// pass is what one timed pass measured.
type pass struct {
	opSeconds sample // wall time of each operation
	allocMB   sample // heap megabytes allocated by each operation
	attempted int
	failed    int
	wall      time.Duration
	firstErr  error
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// count adds another pass's operations and failures (not its timings).
func (p *pass) count(q *pass) {
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// run iterates over the requests until the measuring time is used up
// (at least minIters iterations), one request at a time: a closed loop
// with one client. With a recorder the iteration takes the traced path.
func (b *batchRun) run(seconds float64, minIters int, rec *recorder) *pass {
	p := &pass{}
	var ms runtime.MemStats
	start := time.Now()
	for it := 0; it < minIters || time.Since(start).Seconds() < seconds; it++ {
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		for i := range b.reqs {
			p.attempted++
			var err error
			if rec == nil {
				err = b.runRequest(i)
			} else {
				err = b.runTraced(i, rec)
			}
			if err != nil {
				p.fail(fmt.Errorf("%s/%s: %v", b.workload, b.names[i], err))
			}
		}
		p.opSeconds = append(p.opSeconds, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms)
		p.allocMB = append(p.allocMB, float64(ms.TotalAlloc-alloc0)/1e6)
	}
	p.wall = time.Since(start)
	return p
}

// runRequest executes request i the way a sweep does and checks the
// result against the warm-up iteration.
func (b *batchRun) runRequest(i int) error {
	res, err := b.r.Do(context.Background(), b.reqs[i])
	if err != nil {
		return err
	}
	fp, err := fingerprint(res)
	if err != nil {
		return err
	}
	if fp != b.want[i] {
		return fmt.Errorf("result fingerprint %s differs from iteration 1 (%s)", fp[:12], b.want[i][:12])
	}
	return nil
}

// configsOf expands an app request into its run grid, in run order:
// sweep values outermost, then the procs list — the order of
// RunResult.Apps, which the traced pass is checked against.
func configsOf(req bench.RunRequest) []apps.Config {
	sweep := []int{0}
	if req.Sweep != nil {
		sweep = req.Sweep.Values
	}
	var out []apps.Config
	for _, sv := range sweep {
		for _, procs := range req.Procs {
			cfg := apps.Config{N: req.N, Procs: procs, Steps: req.Steps,
				Seed: req.Seed, Machine: req.Machine}
			for k, v := range req.Knobs {
				cfg = cfg.WithKnob(k, v)
			}
			if req.Sweep != nil {
				switch req.Sweep.Axis {
				case "n":
					cfg.N = sv
				case "steps":
					cfg.Steps = sv
				case "latency_us":
					cfg.Machine.LatencyUS = sv
				case "bandwidth_mbs":
					cfg.Machine.BandwidthMBs = sv
				default:
					cfg = cfg.WithKnob(req.Sweep.Axis, sv)
				}
			}
			out = append(out, cfg)
		}
	}
	return out
}

// runTraced executes request i configuration by configuration through
// the application layer's public entry points, with a span around each
// call, and checks every backend's simulated numbers against the
// warm-up result of the untraced path.
func (b *batchRun) runTraced(i int, rec *recorder) error {
	return traceRequest(rec, i+1, b.reqs[i], b.base[i])
}

func traceRequest(rec *recorder, id int, req bench.RunRequest, want *bench.RunResult) error {
	root := rec.start("harness.request", 0, id)
	defer rec.end(root)
	timed := func(name string, f func()) {
		s := rec.start(name, root, id)
		f()
		rec.end(s)
	}
	cfgs := configsOf(req)
	if len(cfgs) != len(want.Apps) {
		return fmt.Errorf("traced grid has %d configurations, the run had %d", len(cfgs), len(want.Apps))
	}
	for k, cfg := range cfgs {
		var w apps.Workload
		var err error
		timed("apps.generate", func() { w, err = apps.New(req.App, cfg) })
		if err != nil {
			return err
		}
		var seq, ch, base, opt *apps.Result
		timed("apps.seq", func() { seq = w.Sequential() })
		timed("chaos.backend", func() { ch = w.Chaos() })
		timed("tmk.backend", func() { base = w.TmkBase() })
		timed("core.backend", func() { opt = w.TmkOpt() })
		timed("apps.verify", func() {
			for _, r := range []*apps.Result{ch, base, opt} {
				if e := apps.VerifyEqual(seq, r); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			return err
		}
		ref := want.Apps[k]
		for _, pair := range [][2]*apps.Result{{seq, ref.Seq}, {ch, ref.Chaos}, {base, ref.Base}, {opt, ref.Opt}} {
			got, exp := pair[0], pair[1]
			if got.TimeSec != exp.TimeSec || got.Messages != exp.Messages || got.DataMB != exp.DataMB {
				return fmt.Errorf("configuration %d %s: traced run (%v s, %d msgs) differs from untraced (%v s, %d msgs)",
					k, exp.System, got.TimeSec, got.Messages, exp.TimeSec, exp.Messages)
			}
		}
	}
	var err error
	timed("bench.encode", func() { _, err = bench.EncodeResult(want) })
	return err
}

// simCounts are the simulated statistics of one operation. They are
// pure functions of the requests, so they repeat exactly from run to
// run and across commits; a change that moves one has changed the
// simulation, which the fingerprints report as a failure.
type simCounts struct {
	msgs, chaosMsgs, tmkMsgs, coreMsgs, lockAcquires float64
	dataMB, simSeconds, memPeakMB                    float64
}

func (c *simCounts) add(res *bench.RunResult) {
	for _, ar := range res.Apps {
		c.chaosMsgs += float64(ar.Chaos.Messages)
		c.tmkMsgs += float64(ar.Base.Messages)
		c.coreMsgs += float64(ar.Opt.Messages)
		for _, r := range ar.All() {
			c.msgs += float64(r.Messages)
			c.dataMB += r.DataMB
			c.simSeconds += r.TimeSec
			c.lockAcquires += float64(r.LockTotal().Acquires)
			c.memPeakMB = max(c.memPeakMB, r.MaxPeakMB())
		}
	}
}

// perOp averages counts summed over n operations (the peak stays a peak).
func (c simCounts) perOp(n int) simCounts {
	if n < 1 {
		return c
	}
	f := float64(n)
	return simCounts{c.msgs / f, c.chaosMsgs / f, c.tmkMsgs / f, c.coreMsgs / f,
		c.lockAcquires / f, c.dataMB / f, c.simSeconds / f, c.memPeakMB}
}
