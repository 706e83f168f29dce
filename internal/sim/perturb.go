// Perturbation and heterogeneity models (DESIGN.md §15): per-processor
// CPU speed factors, per-link latency/bandwidth asymmetry, and seeded
// per-message jitter. All three are pure functions of the configuration
// and the message total-order key (sentAt, from, seq), so a perturbed
// run is exactly as bit-reproducible as a uniform one — the §7
// determinism argument never depended on the cost model being uniform,
// only on costs being a deterministic function of what is charged.
//
// Zero-cost when absent: Config.Perturb == nil leaves every hot path
// exactly as before (one nil table check on the per-link lookups, one
// multiplication by a factor of exactly 1.0 on the compute charges —
// x*1.0 is bit-exact in IEEE 754, so even the unperturbed simulated
// numbers are byte-identical to the pre-perturbation code).
package sim

import "fmt"

// Perturb deterministically skews the uniform machine model. The zero
// value (and nil) is "no perturbation".
type Perturb struct {
	// CPUFactor[i] scales every compute charge on processor i: 1.3
	// makes processor i a 30%-slow straggler, 0.5 a node twice as
	// fast. Entries must be positive; processors beyond the slice run
	// at the nominal 1.0. The factor applies to everything the
	// processor's own clock is charged for — compute (Advance),
	// message-injection software overhead — and to the interrupt +
	// handler costs of requests it services.
	CPUFactor []float64

	// Links overrides the uniform latency/bandwidth on individual
	// directed links; unlisted links keep Config.LatencyUS /
	// Config.BytesPerUS.
	Links []LinkPerturb

	// JitterUS, when positive, adds a deterministic pseudo-random
	// delay in [0, JitterUS) to every message arrival, drawn from a
	// splitmix64-style hash keyed by (JitterSeed, sender, sender
	// sequence number) — a pure function of the message's total-order
	// key, so the jitter a message experiences is identical run to
	// run and independent of goroutine scheduling.
	JitterUS   float64
	JitterSeed uint64
}

// LinkPerturb overrides one directed link's cost model. A zero field
// keeps the corresponding uniform Config value.
type LinkPerturb struct {
	From, To   int
	LatencyUS  float64 // one-way latency override; 0 = keep Config.LatencyUS
	BytesPerUS float64 // bandwidth override; 0 = keep Config.BytesPerUS
}

// IsZero reports whether the perturbation is absent or the zero value.
func (p *Perturb) IsZero() bool {
	return p == nil || (len(p.CPUFactor) == 0 && len(p.Links) == 0 &&
		p.JitterUS == 0 && p.JitterSeed == 0)
}

// Validate checks the perturbation against a cluster of procs
// processors, returning an error for the first fault: too many or
// non-positive CPU factors, negative jitter, and links that are out of
// range, self-links, negative, override nothing, or repeat an earlier
// link. Messages name the spec file's keys, since spec authors are who
// read them (apps.Machine.Validate prefixes "machine: "). The zero
// perturbation (and nil) is valid; NewCluster panics on an invalid one.
func (p *Perturb) Validate(procs int) error {
	if p.IsZero() {
		return nil
	}
	if len(p.CPUFactor) > procs {
		return fmt.Errorf("perturb.cpu lists %d factors for %d procs", len(p.CPUFactor), procs)
	}
	for i, f := range p.CPUFactor {
		if !(f > 0) {
			return fmt.Errorf("perturb.cpu[%d] must be positive (got %v)", i, f)
		}
	}
	if p.JitterUS < 0 {
		return fmt.Errorf("perturb.jitter_us must be >= 0 (got %v)", p.JitterUS)
	}
	seen := make(map[[2]int]bool, len(p.Links))
	for _, l := range p.Links {
		if l.From < 0 || l.From >= procs || l.To < 0 || l.To >= procs {
			return fmt.Errorf("perturb link %d->%d out of range for %d procs", l.From, l.To, procs)
		}
		if l.From == l.To {
			return fmt.Errorf("perturb link %d->%d is a self-link", l.From, l.To)
		}
		if l.LatencyUS < 0 || l.BytesPerUS < 0 {
			return fmt.Errorf("perturb link %d->%d has a negative override", l.From, l.To)
		}
		if l.LatencyUS == 0 && l.BytesPerUS == 0 {
			return fmt.Errorf("perturb link %d->%d overrides nothing (set latency_us or bandwidth_mbs)", l.From, l.To)
		}
		k := [2]int{l.From, l.To}
		if seen[k] {
			return fmt.Errorf("duplicate perturb link %d->%d", l.From, l.To)
		}
		seen[k] = true
	}
	return nil
}

// buildPerturb precomputes the cluster's dense lookup tables from the
// sparse perturbation spec. Tables stay nil when their dimension is
// unperturbed, so the hot-path lookups reduce to one nil check.
func (c *Cluster) buildPerturb(p *Perturb) {
	if p.IsZero() {
		return
	}
	n := c.cfg.Procs
	if err := p.Validate(n); err != nil {
		panic("sim: " + err.Error())
	}
	hasLat, hasBpu := false, false
	for _, l := range p.Links {
		if l.LatencyUS != 0 {
			hasLat = true
		}
		if l.BytesPerUS != 0 {
			hasBpu = true
		}
	}
	if hasLat {
		c.lat = make([]float64, n*n)
		for i := range c.lat {
			c.lat[i] = c.cfg.LatencyUS
		}
	}
	if hasBpu {
		c.bpu = make([]float64, n*n)
		for i := range c.bpu {
			c.bpu[i] = c.cfg.BytesPerUS
		}
	}
	for _, l := range p.Links {
		if l.LatencyUS != 0 {
			c.lat[l.From*n+l.To] = l.LatencyUS
		}
		if l.BytesPerUS != 0 {
			c.bpu[l.From*n+l.To] = l.BytesPerUS
		}
	}
	c.jitterUS = p.JitterUS
	c.jitterSeed = p.JitterSeed
	for i, f := range p.CPUFactor {
		c.procs[i].cpuf = f
	}
}

// LinkLatencyUS returns the one-way latency of the directed link
// from -> to (the uniform Config.LatencyUS unless perturbed).
func (c *Cluster) LinkLatencyUS(from, to int) float64 {
	if c.lat == nil {
		return c.cfg.LatencyUS
	}
	return c.lat[from*len(c.procs)+to]
}

// LinkXferUS returns the time to move n payload bytes (plus
// per-fragment headers) across the directed link from -> to,
// excluding latency.
func (c *Cluster) LinkXferUS(from, to, n int) float64 {
	if c.bpu == nil {
		return c.cfg.XferUS(n)
	}
	return float64(c.cfg.WireBytes(n)) / c.bpu[from*len(c.procs)+to]
}

// CPUFactor returns processor proc's compute scale factor (1.0 unless
// perturbed). Protocol layers use it to price manager-side work
// charged outside the manager's own goroutine.
func (c *Cluster) CPUFactor(proc int) float64 {
	return c.procs[proc].cpuf
}

// splitmix64 is the 64-bit finalizer of the splitmix64 generator — a
// stateless avalanche hash, exactly what a (seed, proc, seq) -> jitter
// mapping needs: no stream state to share, so concurrent receivers
// never contend and the value depends only on the key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitterFor returns the deterministic arrival jitter in [0, jitterUS)
// for the message (from, seq). The top 53 bits of the hash form an
// exact float64 in [0, 1); the sender id is folded in above the
// sequence bits so (from, seq) pairs map to distinct keys for any
// realistic message count.
func (c *Cluster) jitterFor(from int, seq int64) float64 {
	h := splitmix64(c.jitterSeed ^ uint64(from)<<48 ^ uint64(seq))
	return c.jitterUS * (float64(h>>11) / (1 << 53))
}

// arrivalUS prices one delivered envelope for receiver to: send time
// plus the directed link's latency and transfer, plus (when enabled)
// the message's deterministic jitter.
func (c *Cluster) arrivalUS(env envelope, to int) float64 {
	t := env.sentAt + c.LinkLatencyUS(env.from, to) + c.LinkXferUS(env.from, to, env.bytes)
	if c.jitterUS != 0 {
		t += c.jitterFor(env.from, env.seq)
	}
	return t
}
