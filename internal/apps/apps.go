// Package apps holds shared infrastructure for the irregular
// applications (moldyn, nbf, unstruct, spmv — see registry.go for the
// registry they plug into): the result record every backend produces,
// the measurement window helper, and the quantized arithmetic that makes
// all four backends (sequential, base TreadMarks, optimized TreadMarks,
// CHAOS) produce bit-identical trajectories so correctness can be
// asserted exactly.
package apps

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Grid is the position lattice: all coordinates are kept on multiples of
// 1/Grid. Together with the power-of-two time step this makes every
// floating-point operation in the force computation exact, so force
// accumulation is associative and parallel decompositions produce
// bit-identical results to the sequential code. (The physics is toy, but
// the data-access structure — what the paper measures — is unchanged.)
const Grid = 1 << 16

// Dt is the integration step scale, a power of two so multiplication is
// exact.
const Dt = 1.0 / (1 << 12)

// sim.MemStats categories charged by the application backends.
// Protocol-layer categories live next to their charge sites
// (tmk.MemCatPages/Twins/Diffs/Board, chaos.MemCatTable/Sched/
// Inspector); these are the app-owned ones, named here so charge and
// report sites cannot drift apart by a typo.
const (
	MemCatData    = "chaos.data"    // local data + ghost regions
	MemCatReplica = "chaos.replica" // replicated coordinate copies
	MemCatPairs   = "chaos.pairs"   // pair/iteration lists
	MemCatPrivate = "tmk.private"   // private accumulation arrays
)

// PageRound rounds b up to a multiple of the page size ps — the arena
// sizing helper every DSM backend uses.
func PageRound(b, ps int) int {
	return (b + ps - 1) / ps * ps
}

// Machine is the structured simulated-machine spec a workload runs
// under: uniform base overrides plus an optional Perturb block for
// deterministic heterogeneity. The scenario engine's `machine:`
// mapping and latency/bandwidth sweep axes set it through
// Config.Machine, and every app's parallel backends build their
// clusters through Config so the overrides apply uniformly. The
// sequential reference ignores them by construction: it sends no
// messages, so the network model never prices anything.
//
// Default inheritance: a zero (absent) LatencyUS or BandwidthMBs
// inherits the SP2 default from sim.DefaultConfig. That rule makes a
// literal zero unexpressible here — which is fine, because a
// zero-latency or zero-bandwidth machine is not a meaningful model —
// but it also means an *explicit* `latency_us: 0` in a spec file would
// silently become 85 us. The scenario validator therefore rejects
// explicit zeros ("omit the key to inherit the default") rather than
// letting them alias.
type Machine struct {
	LatencyUS    int // one-way per-message latency (us); 0 = inherit default
	BandwidthMBs int // network bandwidth (MB/s == B/us); 0 = inherit default

	// Perturb, when non-nil and non-zero, deterministically skews the
	// uniform machine (DESIGN.md §15). It is real configuration:
	// bench.RunRequest.Canonical encodes it (as runrequest/v2) and the
	// content address moves with it.
	Perturb *Perturb

	// Trace, when non-nil, is the trace recorder every cluster built
	// through Config records into (DESIGN.md §13). It is observability
	// plumbing, not configuration: bench.RunRequest.Canonical encodes
	// only the machine-model fields, so a traced and an untraced
	// run share a content address — which is exactly why the runner
	// bypasses the result cache for traced requests (a cache hit would
	// skip the side effect).
	Trace *obs.Trace
}

// Perturb is the machine spec's perturbation block: per-processor CPU
// speed factors, per-directed-link latency/bandwidth overrides, and
// seeded per-message arrival jitter. All three are pure functions of
// the configuration and the message total order, so perturbed runs
// stay bit-reproducible (DESIGN.md §15).
type Perturb struct {
	// CPU[i] scales every compute charge on processor i: 1.3 makes it
	// a 30%-slow straggler, 0.5 a node twice as fast. Entries must be
	// positive; processors beyond the list run at the nominal 1.0.
	CPU []float64

	// Links overrides individual directed links. Unlisted links keep
	// the uniform machine values.
	Links []LinkOverride

	// JitterUS, when positive, adds a deterministic pseudo-random
	// delay in [0, JitterUS) microseconds to every message arrival,
	// keyed by (JitterSeed, sender, sender sequence number).
	JitterUS   float64
	JitterSeed int64
}

// LinkOverride overrides one directed link's cost model. A zero field
// inherits the uniform machine value (same rule as Machine itself);
// an override with both fields zero is a no-op and rejected.
type LinkOverride struct {
	From, To     int
	LatencyUS    int // one-way latency on this link (us); 0 = inherit
	BandwidthMBs int // bandwidth on this link (MB/s); 0 = inherit
}

// IsZero reports whether the block is absent or empty.
func (p *Perturb) IsZero() bool {
	return p == nil || (len(p.CPU) == 0 && len(p.Links) == 0 &&
		p.JitterUS == 0 && p.JitterSeed == 0)
}

// Perturbed reports whether the machine carries a non-empty
// perturbation block — the predicate that flips the canonical request
// encoding from runrequest/v1 to runrequest/v2.
func (m Machine) Perturbed() bool {
	return !m.Perturb.IsZero()
}

// Validate checks the machine spec against a cluster of procs
// processors, returning a descriptive error for every way a spec file
// can get it wrong (negative overrides, non-positive CPU factors,
// out-of-range or duplicate links, no-op link overrides, negative
// jitter). The zero Machine is always valid.
func (m Machine) Validate(procs int) error {
	if m.LatencyUS < 0 {
		return fmt.Errorf("machine: latency_us must be >= 0 (got %d)", m.LatencyUS)
	}
	if m.BandwidthMBs < 0 {
		return fmt.Errorf("machine: bandwidth_mbs must be >= 0 (got %d)", m.BandwidthMBs)
	}
	p := m.Perturb
	if p.IsZero() {
		return nil
	}
	if len(p.CPU) > procs {
		return fmt.Errorf("machine: perturb.cpu lists %d factors for %d procs", len(p.CPU), procs)
	}
	for i, f := range p.CPU {
		if !(f > 0) {
			return fmt.Errorf("machine: perturb.cpu[%d] must be positive (got %v)", i, f)
		}
	}
	if p.JitterUS < 0 {
		return fmt.Errorf("machine: perturb.jitter_us must be >= 0 (got %v)", p.JitterUS)
	}
	if p.JitterSeed < 0 {
		return fmt.Errorf("machine: perturb.jitter_seed must be >= 0 (got %d)", p.JitterSeed)
	}
	seen := make(map[[2]int]bool, len(p.Links))
	for _, l := range p.Links {
		if l.From < 0 || l.From >= procs || l.To < 0 || l.To >= procs {
			return fmt.Errorf("machine: perturb link %d->%d out of range for %d procs", l.From, l.To, procs)
		}
		if l.From == l.To {
			return fmt.Errorf("machine: perturb link %d->%d is a self-link", l.From, l.To)
		}
		if l.LatencyUS < 0 || l.BandwidthMBs < 0 {
			return fmt.Errorf("machine: perturb link %d->%d has a negative override", l.From, l.To)
		}
		if l.LatencyUS == 0 && l.BandwidthMBs == 0 {
			return fmt.Errorf("machine: perturb link %d->%d overrides nothing (set latency_us or bandwidth_mbs)", l.From, l.To)
		}
		k := [2]int{l.From, l.To}
		if seen[k] {
			return fmt.Errorf("machine: duplicate perturb link %d->%d", l.From, l.To)
		}
		seen[k] = true
	}
	return nil
}

// Config returns the simulated-machine description for procs
// processors with the overrides applied.
func (m Machine) Config(procs int) sim.Config {
	cfg := sim.DefaultConfig(procs)
	if m.LatencyUS > 0 {
		cfg.LatencyUS = float64(m.LatencyUS)
	}
	if m.BandwidthMBs > 0 {
		cfg.BytesPerUS = float64(m.BandwidthMBs)
	}
	if m.Perturbed() {
		p := m.Perturb
		sp := &sim.Perturb{
			CPUFactor:  append([]float64(nil), p.CPU...),
			JitterUS:   p.JitterUS,
			JitterSeed: uint64(p.JitterSeed),
		}
		for _, l := range p.Links {
			sp.Links = append(sp.Links, sim.LinkPerturb{
				From: l.From, To: l.To,
				LatencyUS:  float64(l.LatencyUS),
				BytesPerUS: float64(l.BandwidthMBs),
			})
		}
		cfg.Perturb = sp
	}
	cfg.Trace = m.Trace
	return cfg
}

// Q quantizes v onto the position lattice.
func Q(v float64) float64 {
	return math.Round(v*Grid) / Grid
}

// Wrap applies periodic boundary conditions to a lattice coordinate
// (exact: L is itself on the lattice).
func Wrap(v, l float64) float64 {
	for v >= l {
		v -= l
	}
	for v < 0 {
		v += l
	}
	return v
}

// MinImage returns the minimum-image displacement for a periodic box of
// side l (exact for lattice values).
func MinImage(d, l float64) float64 {
	if d > l/2 {
		return d - l
	}
	if d < -l/2 {
		return d + l
	}
	return d
}

// Result is what one backend run reports.
type Result struct {
	System   string  // "seq", "tmk", "tmk-opt", "chaos"
	TimeSec  float64 // simulated execution time of the measured window
	Speedup  float64 // filled by the harness: seq time / TimeSec
	Messages int64
	DataMB   float64
	// Detail carries named sub-measurements (seconds unless noted), e.g.
	// "inspector_s", "scan_s", and per-category traffic.
	Detail map[string]float64

	// Locks is the per-(lock, processor) synchronization grid of the
	// measured window (nil when the window saw no lock activity). Filled
	// by Episode.Finish whenever the window saw lock activity.
	Locks map[sim.LockKey]sim.LockStat

	// Mem is the simulated-memory ledger at the window's end (nil for
	// the sequential backend, which does not finish through Finish), and MemPeak the
	// per-processor footprint totals. Filled by Episode.Finish.
	Mem     map[sim.MemKey]sim.MemStat
	MemPeak []sim.MemStat

	// TableOrg names the translation-table organization a CHAOS backend
	// ran with ("" for the other systems) — the column the memory table
	// and the capacity policy are about.
	TableOrg string

	// Final state for verification (global element order). Excluded
	// from the JSON encoding: the bit-identity check runs at execution
	// time (RunAllCtx), and a result served from the run service's
	// disk tier carries the verified numbers, not the state vectors.
	Forces []float64 `json:"-"`
	X      []float64 `json:"-"`
}

// LockTotal merges the lock grid down to one cell in canonical
// (resource, processor) order; zero if the backend used no locks.
func (r *Result) LockTotal() sim.LockStat {
	return sim.TotalLockStat(r.Locks)
}

// MaxPeakMB returns the largest per-processor footprint high-water mark
// in megabytes (zero for the sequential backend).
func (r *Result) MaxPeakMB() float64 {
	max := int64(0)
	for _, p := range r.MemPeak {
		if p.PeakBytes > max {
			max = p.PeakBytes
		}
	}
	return float64(max) / 1e6
}

// MemCat merges one ledger category over processors: the largest
// per-processor peak (the binding number under a per-processor budget)
// and the summed current bytes.
func (r *Result) MemCat(cat string) sim.MemStat {
	var out sim.MemStat
	for k, v := range r.Mem {
		if k.Cat != cat {
			continue
		}
		out.CurBytes += v.CurBytes
		if v.PeakBytes > out.PeakBytes {
			out.PeakBytes = v.PeakBytes
		}
	}
	return out
}

// AddDetail accumulates a named detail value.
func (r *Result) AddDetail(key string, v float64) {
	if r.Detail == nil {
		r.Detail = map[string]float64{}
	}
	r.Detail[key] += v
}

// VerifyEqual checks two backends produced bit-identical final state.
func VerifyEqual(a, b *Result) error {
	if len(a.Forces) != len(b.Forces) || len(a.X) != len(b.X) {
		return fmt.Errorf("%s vs %s: state length mismatch", a.System, b.System)
	}
	for i := range a.Forces {
		if a.Forces[i] != b.Forces[i] {
			return fmt.Errorf("%s vs %s: forces[%d] = %v vs %v",
				a.System, b.System, i, a.Forces[i], b.Forces[i])
		}
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return fmt.Errorf("%s vs %s: x[%d] = %v vs %v",
				a.System, b.System, i, a.X[i], b.X[i])
		}
	}
	return nil
}

// Measure delimits the timed window of a run (the paper excludes
// initialization everywhere and, for nbf, the first iteration). Start
// and End are collective; the statistics snapshot is taken inside the
// barrier's combine step so it is consistent across processors.
type Measure struct {
	c         *sim.Cluster
	startID   int
	endID     int
	startTime []float64
	endTime   []float64
	startCats map[string]sim.CatStat
	endCats   map[string]sim.CatStat
	startSync map[sim.LockKey]sim.LockStat
	endSync   map[sim.LockKey]sim.LockStat
	endMem    map[sim.MemKey]sim.MemStat
	endMemPk  []sim.MemStat
}

// NewMeasure prepares a measurement window over the cluster.
func NewMeasure(c *sim.Cluster) *Measure {
	return &Measure{
		c:         c,
		startID:   c.UniqueBarrierID(),
		endID:     c.UniqueBarrierID(),
		startTime: make([]float64, c.NProcs()),
		endTime:   make([]float64, c.NProcs()),
	}
}

// Start opens the window. All processors must call it. The snapshot is
// taken inside the barrier's combine step: with every processor blocked
// in the barrier no requests are in flight, so clocks, interrupt
// aggregates, and traffic counters are quiescent and the measurement is
// deterministic.
func (m *Measure) Start(p *sim.Proc) {
	p.BarrierExchange(m.startID, nil, 0, func(contrib []any) ([]any, []int, float64) {
		m.startCats = m.c.Stats.Categories()
		m.startSync = m.c.Sync.Snapshot()
		for i := 0; i < m.c.NProcs(); i++ {
			m.startTime[i] = m.c.Proc(i).Time()
		}
		return nil, nil, 0
	})
}

// End closes the window. All processors must call it.
func (m *Measure) End(p *sim.Proc) {
	p.BarrierExchange(m.endID, nil, 0, func(contrib []any) ([]any, []int, float64) {
		m.endCats = m.c.Stats.Categories()
		m.endSync = m.c.Sync.Snapshot()
		m.endMem = m.c.Mem.Snapshot()
		m.endMemPk, _ = m.c.Mem.ProcPeaks()
		for i := 0; i < m.c.NProcs(); i++ {
			m.endTime[i] = m.c.Proc(i).Time()
		}
		return nil, nil, 0
	})
}

// TimeSec returns the window's makespan in (simulated) seconds.
func (m *Measure) TimeSec() float64 {
	worst := 0.0
	for i := range m.startTime {
		if d := m.endTime[i] - m.startTime[i]; d > worst {
			worst = d
		}
	}
	return worst / 1e6
}

// Traffic returns total messages and megabytes within the window.
func (m *Measure) Traffic() (msgs int64, dataMB float64) {
	var bytes int64
	for k, end := range m.endCats {
		start := m.startCats[k]
		msgs += end.Messages - start.Messages
		bytes += end.Bytes - start.Bytes
	}
	return msgs, float64(bytes) / 1e6
}

// Categories returns the per-category traffic within the window.
func (m *Measure) Categories() map[string]sim.CatStat {
	out := map[string]sim.CatStat{}
	for k, end := range m.endCats {
		start := m.startCats[k]
		d := sim.CatStat{
			Messages: end.Messages - start.Messages,
			Bytes:    end.Bytes - start.Bytes,
		}
		if d.Messages != 0 || d.Bytes != 0 {
			out[k] = d
		}
	}
	return out
}
