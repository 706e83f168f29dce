package sim

import (
	"math"
	"testing"
)

// perturbWorkload runs a small mixed workload — all-to-all messaging,
// compute, and a combining barrier — and returns each processor's
// final simulated time as raw float64 bits, so "close" can never pass
// as "equal".
func perturbWorkload(cfg Config) []uint64 {
	c := NewCluster(cfg)
	bid := c.UniqueBarrierID()
	procs := cfg.Procs
	c.Run(func(p *Proc) {
		for round := 0; round < 3; round++ {
			for q := 0; q < procs; q++ {
				if q != p.ID() {
					p.Send(q, "pw", round, nil, 64+32*p.ID())
				}
			}
			p.RecvEach("pw", round, procs-1, nil)
			p.Advance(float64(10 + p.ID()))
			p.BarrierExchange(bid, int64(p.ID()), 8, func(contrib []any) ([]any, []int, float64) {
				var sum int64
				for _, c := range contrib {
					sum += c.(int64)
				}
				replies := make([]any, len(contrib))
				bytes := make([]int, len(contrib))
				for i := range replies {
					replies[i], bytes[i] = sum, 8
				}
				return replies, bytes, 2
			})
		}
	})
	out := make([]uint64, procs)
	for i := range out {
		out[i] = math.Float64bits(c.Proc(i).Time())
	}
	return out
}

// TestUnitCPUFactorsAreByteExact is the identity-operation guarantee
// the v1 encoding compatibility rests on (DESIGN.md §15): a
// perturbation block of all-1.0 CPU factors multiplies every compute
// charge by exactly 1.0, and x*1.0 is bit-exact in IEEE 754 — so the
// simulated times are byte-identical to an unperturbed run, not
// merely close.
func TestUnitCPUFactorsAreByteExact(t *testing.T) {
	cfg := DefaultConfig(4)
	plain := perturbWorkload(cfg)

	cfg.Perturb = &Perturb{CPUFactor: []float64{1, 1, 1, 1}}
	unit := perturbWorkload(cfg)
	for i := range plain {
		if plain[i] != unit[i] {
			t.Errorf("proc %d: unit-factor time %v != unperturbed %v (bit difference)",
				i, math.Float64frombits(unit[i]), math.Float64frombits(plain[i]))
		}
	}
}

// TestPerturbedRunsAreByteIdentical is the §7 determinism argument
// extended to the perturbed machine: every perturbation dimension at
// once, run twice, bit-equal times.
func TestPerturbedRunsAreByteIdentical(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Perturb = &Perturb{
		CPUFactor:  []float64{1.3, 1, 0.9, 1},
		Links:      []LinkPerturb{{From: 0, To: 1, LatencyUS: 170}, {From: 1, To: 0, BytesPerUS: 20}},
		JitterUS:   5,
		JitterSeed: 7,
	}
	ref := perturbWorkload(cfg)
	for run := 1; run < 4; run++ {
		got := perturbWorkload(cfg)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d proc %d: %v != reference %v",
					run, i, math.Float64frombits(got[i]), math.Float64frombits(ref[i]))
			}
		}
	}
}

// TestCPUFactorScalesCompute pins the straggler semantics: a factor f
// multiplies exactly the processor's own compute charges.
func TestCPUFactorScalesCompute(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Perturb = &Perturb{CPUFactor: []float64{1.3}}
	c := NewCluster(cfg)
	c.Run(func(p *Proc) {
		p.Advance(100)
	})
	if got, want := c.Proc(0).Time(), 100*1.3; got != want {
		t.Errorf("straggler compute time = %v, want %v", got, want)
	}
	if got := c.Proc(1).Time(); got != 100 {
		t.Errorf("unlisted proc time = %v, want 100 (nominal factor 1.0)", got)
	}
}

// TestLinkPerturbIsDirectional checks the asymmetric link tables: an
// override applies to exactly the directed link it names, the reverse
// direction keeps the uniform Config values, and a zero field in an
// override inherits rather than zeroing.
func TestLinkPerturbIsDirectional(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Perturb = &Perturb{Links: []LinkPerturb{
		{From: 0, To: 1, LatencyUS: 170}, // latency only; bandwidth inherits
		{From: 2, To: 3, BytesPerUS: 20}, // bandwidth only; latency inherits
	}}
	c := NewCluster(cfg)

	if got := c.LinkLatencyUS(0, 1); got != 170 {
		t.Errorf("LinkLatencyUS(0,1) = %v, want 170", got)
	}
	if got := c.LinkLatencyUS(1, 0); got != cfg.LatencyUS {
		t.Errorf("LinkLatencyUS(1,0) = %v, want uniform %v", got, cfg.LatencyUS)
	}
	if got, want := c.LinkXferUS(2, 3, 1024), float64(cfg.WireBytes(1024))/20; got != want {
		t.Errorf("LinkXferUS(2,3) = %v, want %v", got, want)
	}
	if got, want := c.LinkXferUS(3, 2, 1024), cfg.XferUS(1024); got != want {
		t.Errorf("LinkXferUS(3,2) = %v, want uniform %v", got, want)
	}
	// The latency-only override keeps the uniform transfer rate, and
	// the bandwidth-only override keeps the uniform latency.
	if got, want := c.LinkXferUS(0, 1, 1024), cfg.XferUS(1024); got != want {
		t.Errorf("LinkXferUS(0,1) = %v, want uniform %v", got, want)
	}
	if got := c.LinkLatencyUS(2, 3); got != cfg.LatencyUS {
		t.Errorf("LinkLatencyUS(2,3) = %v, want uniform %v", got, cfg.LatencyUS)
	}
}

// TestSlowLinkDelaysMessages runs the directional override end to end:
// a message across the slowed 0->1 link arrives exactly the latency
// delta later than one across the untouched 1->0 link.
func TestSlowLinkDelaysMessages(t *testing.T) {
	cfg := DefaultConfig(2)
	arrival := func(cfg Config) [2]float64 {
		c := NewCluster(cfg)
		var at [2]float64
		c.Run(func(p *Proc) {
			p.Send(1-p.ID(), "x", 0, nil, 64)
			p.RecvEach("x", 0, 1, nil)
			at[p.ID()] = p.Clock()
		})
		return at
	}
	base := arrival(cfg)
	cfg.Perturb = &Perturb{Links: []LinkPerturb{{From: 0, To: 1, LatencyUS: cfg.LatencyUS + 100}}}
	pert := arrival(cfg)

	if got, want := pert[1], base[1]+100; got != want {
		t.Errorf("arrival over slowed link = %v, want %v (+100us)", got, want)
	}
	if pert[0] != base[0] {
		t.Errorf("arrival over reverse link moved: %v != %v", pert[0], base[0])
	}
}

// TestJitterIsDeterministicAndBounded checks the jitter hash contract:
// values land in [0, JitterUS), depend only on (seed, from, seq), and
// differ across senders and sequence numbers (the hash avalanches).
func TestJitterIsDeterministicAndBounded(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Perturb = &Perturb{JitterUS: 5, JitterSeed: 42}
	c := NewCluster(cfg)
	c2 := NewCluster(cfg)

	seen := map[float64]bool{}
	for from := 0; from < 4; from++ {
		for seq := int64(1); seq <= 64; seq++ {
			j := c.jitterFor(from, seq)
			if j < 0 || j >= 5 {
				t.Fatalf("jitterFor(%d,%d) = %v, outside [0, 5)", from, seq, j)
			}
			if j2 := c2.jitterFor(from, seq); j2 != j {
				t.Fatalf("jitterFor(%d,%d) differs across clusters: %v != %v", from, seq, j, j2)
			}
			seen[j] = true
		}
	}
	if len(seen) < 250 {
		t.Errorf("only %d distinct jitter values over 256 keys — hash is not avalanching", len(seen))
	}

	cfg.Perturb = &Perturb{JitterUS: 5, JitterSeed: 43}
	c3 := NewCluster(cfg)
	if c3.jitterFor(1, 1) == c.jitterFor(1, 1) {
		t.Error("different seeds produced identical jitter for the same key")
	}
}

// TestPerturbValidatePanics: malformed perturbations are programming
// bugs at the sim layer (user layers reject them with errors first),
// so the cluster constructor refuses to build rather than simulating
// garbage.
func TestPerturbValidatePanics(t *testing.T) {
	bad := map[string]*Perturb{
		"non-positive factor": {CPUFactor: []float64{0}},
		"too many factors":    {CPUFactor: []float64{1, 1, 1}},
		"self link":           {Links: []LinkPerturb{{From: 1, To: 1, LatencyUS: 5}}},
		"out of range":        {Links: []LinkPerturb{{From: 0, To: 9, LatencyUS: 5}}},
		"negative cost":       {Links: []LinkPerturb{{From: 0, To: 1, LatencyUS: -5}}},
		"negative jitter":     {JitterUS: -1},
		"no-op link":          {Links: []LinkPerturb{{From: 0, To: 1}}},
		"duplicate link":      {Links: []LinkPerturb{{From: 0, To: 1, LatencyUS: 5}, {From: 0, To: 1, BytesPerUS: 20}}},
	}
	for name, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCluster accepted a malformed perturbation", name)
				}
			}()
			cfg := DefaultConfig(2)
			cfg.Perturb = p
			NewCluster(cfg)
		}()
	}
}
