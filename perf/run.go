package main

import (
	"fmt"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow start (a cold page cache, a busy neighbour)
// does not decide the metric.
const setupRounds = 3

// endToEnd assembles the end-to-end metrics of a timed pass.
func endToEnd(setups sample, p *pass) map[string]metric {
	return map[string]metric{
		"setup_s":         {setups.median(), "s"},
		"op_ms_p50":       {p.opSeconds.median() * 1e3, "ms"},
		"ops_per_s":       {float64(len(p.opSeconds)) / p.wall.Seconds(), "1/s"},
		"alloc_mb_per_op": {p.allocMB.median(), "MB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// finish turns a pass's failure count into the result object, adding
// the failures found outside the timed pass (committed fingerprints).
func finish(p *pass, extraAttempted int, extraErrs []error, metrics map[string]metric) *result {
	for _, err := range extraErrs {
		p.fail(err)
	}
	if p.firstErr != nil {
		fmt.Printf("# FAILED %d of %d operations; first: %v\n", p.failed, p.attempted+extraAttempted, p.firstErr)
	}
	return &result{Correct: p.failed == 0, Attempted: p.attempted + extraAttempted,
		Failed: p.failed, Metrics: metrics}
}

// describe prints a latency sample the way the metrics guide asks: the
// median, the highest percentile with enough samples beyond it, the
// quartiles and the sample count. These lines are commentary; the
// named metrics follow.
func describe(label string, s sample, unit string) {
	line := fmt.Sprintf("# %s: n=%d p25=%.4g p50=%.4g p75=%.4g", label, len(s), s.quantile(0.25), s.median(), s.quantile(0.75))
	if hp := s.highestPercentile(); hp > 75 {
		v, _ := s.percentile(hp)
		line += fmt.Sprintf(" p%g=%.4g", hp, v)
	}
	fmt.Println(line, unit)
}

// timeSetups sets the workload up setupRounds times (once for a traced
// or a -quick run) and returns each round's duration, the first counted
// from process start.
func timeSetups(o options, setup func() error) (sample, error) {
	rounds := setupRounds
	if o.quick || o.trace {
		rounds = 1
	}
	var setups sample
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		if err := setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, nil
}

func runBatchWorkload(o options) (*result, error) {
	minIters := 3
	if o.quick {
		minIters = 2
	}
	var b *batchRun
	setups, err := timeSetups(o, func() (err error) {
		b, err = setupBatch(o.workload, o.seed, o.quick)
		return err
	})
	if err != nil {
		return nil, err
	}
	var committed []error
	if !o.quick {
		committed = checkCommitted(o.workload, o.seed, b.names, b.want)
	}

	if !o.trace {
		p := b.run(o.seconds, minIters, nil)
		describe(o.workload+" iteration", p.opSeconds, "s")
		return finish(p, len(b.reqs), committed, endToEnd(setups, p)), nil
	}

	// The traced run: a short untraced pass, the same pass traced (their
	// difference is the tracing overhead), then the layer probes.
	plain := b.run(o.seconds/4, 2, nil)
	rec := newRecorder()
	traced := b.run(o.seconds/4, 2, rec)
	var counts simCounts
	for _, res := range b.base {
		counts.add(res)
	}
	lm := layerMetrics(rec.spans, len(traced.opSeconds), counts,
		overheadPct(plain.opSeconds, traced.opSeconds), nil, runProbes(o.quick))
	if err := rec.write(spanPath(o)); err != nil {
		return nil, err
	}
	traced.count(plain)
	return finish(traced, len(b.reqs), committed, lm), nil
}

func runServiceWorkload(o options) (*result, error) {
	warm := int64(warmRequests)
	if o.quick {
		warm = 100
	}
	var s *service
	var setupErrs []error
	setups, err := timeSetups(o, func() (err error) {
		if s != nil {
			s.close()
		}
		if s, err = setupService(o.seed, o.quick); err != nil {
			return err
		}
		if wp, _ := s.run(0, 0, warm, nil); wp.firstErr != nil {
			setupErrs = append(setupErrs, fmt.Errorf("warm-up: %v", wp.firstErr))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	if !o.quick {
		setupErrs = append(setupErrs, checkCommitted(o.workload, o.seed,
			[]string{"primed"}, []string{s.primedFingerprint()})...)
	}
	classLines := func(p *servicePass) {
		for c, name := range classNames {
			describe(o.workload+" "+name+" latency", p.classMS[c], "ms")
		}
	}

	if !o.trace {
		p, _ := s.run(warm, o.seconds, 0, nil)
		classLines(p)
		return finish(&p.pass, len(s.primed), setupErrs, endToEnd(setups, &p.pass)), nil
	}

	plain, next := s.run(warm, o.seconds/4, 0, nil)
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, _ := s.run(next, o.seconds/4, 0, rec)
	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	classLines(traced)
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	delta["disk_bytes"] = after[`repro_cache_bytes{tier="disk"}`]

	// The anatomy of the mix's first misses, one op each. The sample is
	// a function of the seed alone, so its simulated counts repeat.
	sampleSize := 32
	if o.quick {
		sampleSize = 2
	}
	var docs [][]byte
	for i := warm; len(docs) < sampleSize; i++ {
		if class, body, _ := s.request(i); classNames[class] == "miss" {
			docs = append(docs, body)
		}
	}
	counts, n, err := missAnatomy(rec, docs)
	if err != nil {
		traced.fail(fmt.Errorf("miss anatomy: %v", err))
	}
	lm := layerMetrics(rec.spans, n, counts.perOp(n),
		overheadPct(plain.opSeconds, traced.opSeconds), delta, runProbes(o.quick))
	if err := rec.write(spanPath(o)); err != nil {
		return nil, err
	}
	traced.count(&plain.pass)
	return finish(&traced.pass, len(s.primed), setupErrs, lm), nil
}

// overheadPct is the traced pass's median over the untraced one's, as
// a percentage above it.
func overheadPct(plain, traced sample) float64 {
	if plain.median() == 0 {
		return 0
	}
	return (traced.median()/plain.median() - 1) * 100
}

func spanPath(o options) string {
	if o.traceOut != "" {
		return o.traceOut
	}
	return ".perf-out/spans-" + o.workload + ".json"
}
