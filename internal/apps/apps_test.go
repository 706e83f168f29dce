package apps

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestQIsIdempotentAndOnLattice(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.Abs(v) > 1e12 {
			return true
		}
		q := Q(v)
		return Q(q) == q && q*Grid == math.Round(q*Grid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLatticeArithmeticIsExact(t *testing.T) {
	// The foundation of cross-backend bit-exact verification: sums of
	// lattice values within range are exact, hence order-independent.
	f := func(raw [8]int32) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r%(1<<20)) / Grid
		}
		fwd := 0.0
		for _, v := range vals {
			fwd += v
		}
		rev := 0.0
		for i := len(vals) - 1; i >= 0; i-- {
			rev += vals[i]
		}
		return fwd == rev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWrap(t *testing.T) {
	l := Q(64.0)
	cases := []struct{ in, want float64 }{
		{0, 0},
		{63.5, 63.5},
		{64, 0},
		{65, 1},
		{-1, 63},
		{-65, 63},
	}
	for _, c := range cases {
		if got := Wrap(Q(c.in), l); got != Q(c.want) {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinImage(t *testing.T) {
	l := 64.0
	if MinImage(40, l) != 40-64 {
		t.Error("positive wrap")
	}
	if MinImage(-40, l) != -40+64 {
		t.Error("negative wrap")
	}
	if MinImage(10, l) != 10 {
		t.Error("identity")
	}
	// |result| <= l/2 for any displacement within one box length (the
	// only case positions in [0, l) can produce).
	f := func(raw int32) bool {
		d := float64(raw%(1<<15)) / 512 // (-64, 64)
		r := MinImage(d, l)
		return math.Abs(r) <= l/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyEqual(t *testing.T) {
	a := &Result{System: "a", Forces: []float64{1, 2}, X: []float64{3}}
	b := &Result{System: "b", Forces: []float64{1, 2}, X: []float64{3}}
	if err := VerifyEqual(a, b); err != nil {
		t.Fatalf("equal results rejected: %v", err)
	}
	b.Forces[1] = 99
	if err := VerifyEqual(a, b); err == nil {
		t.Fatal("mismatch not detected")
	}
	c := &Result{System: "c", Forces: []float64{1}, X: []float64{3}}
	if err := VerifyEqual(a, c); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestAddDetail(t *testing.T) {
	r := &Result{}
	r.AddDetail("k", 1.5)
	r.AddDetail("k", 0.5)
	if r.Detail["k"] != 2.0 {
		t.Fatalf("detail = %v", r.Detail["k"])
	}
}

func TestMeasureWindow(t *testing.T) {
	ep := NewEpisode("test", sim.DefaultConfig(4))
	ep.Cluster.Run(func(p *sim.Proc) {
		p.Advance(100) // warmup: excluded
		ep.Start(p)
		p.Advance(float64(50 * (p.ID() + 1))) // slowest: 200
		if p.ID() == 0 {
			p.Send(1, "x", 0, nil, 1000)
		}
		if p.ID() == 1 {
			p.RecvEach("x", 0, 1, nil)
		}
		ep.End(p)
		p.Advance(999) // after window: excluded
	})
	r := ep.Finish()
	ep.TrafficDetail()
	sec := r.TimeSec
	// Slowest proc computes 200us; the window also carries the message
	// latency+transfer and barrier arrival costs, but not the warmup or
	// the post-window work.
	if sec < 200e-6 || sec > 600e-6 {
		t.Fatalf("window = %v s, want ~200-600us", sec)
	}
	// The window's own boundary barriers leak 2*(N-1) messages into the
	// window (release legs of Start, arrival legs of End); the payload
	// message must be there exactly once.
	if r.Detail["msgs.x"] != 1 {
		t.Fatalf("payload msgs = %v, want 1 (all: %v)", r.Detail["msgs.x"], r.Detail)
	}
	if r.Messages != 1+2*3 {
		t.Fatalf("window msgs = %d, want 7 (payload + barrier legs)", r.Messages)
	}
	if r.DataMB <= 0 {
		t.Fatal("window bytes missing")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	run := func() float64 {
		ep := NewEpisode("test", sim.DefaultConfig(8))
		ep.Cluster.Run(func(p *sim.Proc) {
			ep.Start(p)
			p.Advance(float64(p.ID()) * 7.3)
			ep.End(p)
		})
		return ep.Finish().TimeSec
	}
	a := run()
	for i := 0; i < 5; i++ {
		if b := run(); b != a {
			t.Fatalf("nondeterministic window: %v vs %v", a, b)
		}
	}
}

// TestWindowExcludesInitialization: the Episode window is the only
// thing that leaves initialization out of a result. Compute, a ring of
// sends and a lock acquire on every processor before Start must not
// reach TimeSec, Messages or Locks: the result equals that of the same
// window run on a cluster that did nothing first. The window opens at
// each processor's own arrival at Start, so an early arrival's wait for
// the last one would count; initialization therefore ends on every
// processor at the one instant initEnd.
func TestWindowExcludesInitialization(t *testing.T) {
	const procs, initLock, windowLock, initEnd = 4, 7, 9, 1e5
	run := func(initialize bool) *Result {
		ep := NewEpisode("test", sim.DefaultConfig(procs))
		ep.Cluster.Run(func(p *sim.Proc) {
			me := p.ID()
			if initialize {
				p.Advance(float64(1000 * (me + 1)))
				p.Send((me+1)%procs, "init", 0, nil, 4096)
				p.RecvEach("init", 0, 1, nil)
				p.AdvanceTo(p.AcquireResource(initLock, p.Clock(), nil))
				p.Advance(10)
				p.ReleaseResource(initLock, p.Clock())
				if p.Clock() >= initEnd {
					t.Errorf("proc %d initialized until %v, past %v", me, p.Clock(), initEnd)
				}
				p.AdvanceTo(initEnd)
			}
			ep.Start(p)
			p.Advance(float64(50 * (me + 1)))
			if me == 0 {
				p.Send(1, "x", 0, nil, 1000)
			}
			if me == 1 {
				p.RecvEach("x", 0, 1, nil)
			}
			if me == 2 {
				p.AdvanceTo(p.AcquireResource(windowLock, p.Clock(), nil))
				p.Advance(5)
				p.ReleaseResource(windowLock, p.Clock())
			}
			ep.End(p)
		})
		r := ep.Finish()
		ep.TrafficDetail()
		return r
	}
	got, want := run(true), run(false)
	if got.Messages != want.Messages || got.Messages != 1+2*(procs-1) {
		t.Errorf("window msgs = %d, want %d (payload + barrier legs, as without initialization)",
			got.Messages, want.Messages)
	}
	if _, ok := got.Detail["msgs.init"]; ok {
		t.Errorf("initialization traffic reached the result: %v", got.Detail)
	}
	if math.Abs(got.TimeSec-want.TimeSec) > 1e-12 {
		t.Errorf("window = %v s, want %v s as without initialization", got.TimeSec, want.TimeSec)
	}
	if len(got.Locks) != 1 {
		t.Fatalf("lock cells = %v, want only the window's acquire", got.Locks)
	}
	if c := got.Locks[sim.LockKey{Res: windowLock, Proc: 2}]; c.Acquires != 1 || c.HoldUS != 5 {
		t.Errorf("window lock cell = %+v, want 1 acquire held 5us", c)
	}
	if got.Detail["lock_acquires"] != 1 {
		t.Errorf("lock_acquires = %v, want 1", got.Detail["lock_acquires"])
	}
}

func TestMachineConfigOverrides(t *testing.T) {
	def := Machine{}.Config(4)
	if want := sim.DefaultConfig(4); def != want {
		t.Fatalf("zero Machine changed the config: %+v vs %+v", def, want)
	}
	got := Machine{LatencyUS: 170, BandwidthMBs: 20}.Config(4)
	if got.LatencyUS != 170 || got.BytesPerUS != 20 {
		t.Fatalf("overrides not applied: latency %v, bandwidth %v", got.LatencyUS, got.BytesPerUS)
	}
	if got.Procs != 4 || got.MsgHeaderB != def.MsgHeaderB {
		t.Fatalf("override touched unrelated fields: %+v", got)
	}
}
