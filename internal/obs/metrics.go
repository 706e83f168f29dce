// Package obs is the repo's zero-dependency observability substrate:
// a Prometheus-style metrics registry (counters, gauges, fixed-bucket
// histograms, with labels) and a deterministic simulated-time trace
// recorder (trace.go). Both layers follow the repo's house rules —
// no third-party imports, and anything byte-diffed in CI must be a
// pure function of the request (DESIGN.md §13).
//
// Metrics are operational, not simulated: they count wall-clock work
// (cache hits, pool occupancy, request latency) and are therefore
// deliberately excluded from every determinism check. The trace
// recorder is the opposite — it records only simulated instants and is
// byte-identical run to run.
//
// Naming convention: repro_<subsystem>_<metric>[_<unit>][_total], e.g.
// repro_cache_hits_total, repro_runner_request_seconds. Counters end in
// _total; histograms carry a base unit (seconds, bytes).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Add applies a delta (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Buckets follow the Prometheus
// `le` convention: an observation v lands in every bucket whose upper
// bound is >= v (cumulative at render time; stored per-bucket here).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1: the last is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot returns copies of the per-bucket counts, sum, and count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// DefLatencyBuckets is the default wall-latency bucket ladder in
// seconds, spanning a cache hit (~us) to a paper-scale sweep (~minutes).
func DefLatencyBuckets() []float64 {
	return []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05,
		.1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}
}

// family is one registered metric name: type, help, label schema, and
// the labeled series created so far.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter / *Gauge / *Histogram
	order  []string       // insertion order of keys (render sorts; this bounds work)
}

const labelSep = "\x1f"

func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = make()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use;
// registering the same name twice panics (two owners of one series is
// always a bug).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

var std = NewRegistry()

// Default returns the process-wide registry the instrumented packages
// (cache, runner, scenario) register into.
func Default() *Registry { return std }

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %s", l, name))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s buckets must be strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: map[string]any{}}
	r.fams[name] = f
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// Histogram registers and returns an unlabeled fixed-bucket histogram.
// buckets are ascending upper bounds; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, buckets)
	return f.get(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on
// first use). The value count must match the label schema.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// WriteText renders every family in Prometheus text exposition format,
// families sorted by name and series sorted by label values, so the
// output is stable for a fixed metric state.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text renders WriteText into a string.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b) // strings.Builder never errors
	return b.String()
}

func (f *family) write(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]any, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	for i, k := range keys {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		switch s := series[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), s.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtFloat(s.Value()))
		case *Histogram:
			counts, sum, count := s.snapshot()
			cum := uint64(0)
			for j, bound := range f.bounds {
				cum += counts[j]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, "le", fmtFloat(bound)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, values, "le", "+Inf"), count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), fmtFloat(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), count)
		}
	}
}

// labelString renders {a="x",b="y"} (plus an optional extra pair, the
// histogram `le`), or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, `\"`+"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
