package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics — one rule for every statistic the
// benchmark prints, so a median and a quartile of one sample are
// mutually consistent. An empty sample yields 0.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark driver computes run-to-run spreads with.
func (s sample) quartiles() (q1, q3 float64) {
	v := s.sorted()
	n := len(v)
	if n < 2 {
		return s.median(), s.median()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure -compare holds against a metric's bound.
func (s sample) spread() float64 {
	m := s.median()
	if m == 0 {
		return 0
	}
	q1, q3 := s.quartiles()
	return (q3 - q1) / math.Abs(m)
}

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so a p99 is never one
// outlier's latency.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) and whether the
// sample is large enough to report it under the minBeyond rule.
func (s sample) percentile(p float64) (float64, bool) {
	beyond := float64(len(s)) * (100 - p) / 100
	if beyond < minBeyond {
		return 0, false
	}
	return s.quantile(p / 100), true
}

// highestPercentile names the highest of the candidate percentiles the
// sample may report under the minBeyond rule (0 if none).
func (s sample) highestPercentile() float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if _, ok := s.percentile(p); ok {
			best = p
		}
	}
	return best
}
