package sim

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// BenchmarkSendTraceDisabled guards the disabled-path contract of
// DESIGN.md §13: with no Trace in the Config, the send/recv hot path
// must allocate nothing for tracing — the emit sites are a single nil
// check. The benchmark reports allocs/op; the CI bench gate tracks it
// and TestSendTraceDisabledZeroAlloc asserts the zero.
func BenchmarkSendTraceDisabled(b *testing.B) {
	c := NewCluster(DefaultConfig(2))
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(func(p *Proc) {
		next := (p.ID() + 1) % 2
		for i := 0; i < b.N; i++ {
			p.Send(next, "ring", 0, nil, 64)
			p.RecvEach("ring", 0, 1, nil)
			p.Advance(1)
		}
	})
}

// TestSendTraceDisabledZeroAlloc is the hard assertion behind the
// benchmark: zero allocations per send+recv round when tracing is off.
// AllocsPerRun measures the calling goroutine only, so the cluster runs
// a warmed steady-state ring inside the measured function the same way
// TestArbiterZeroAllocSteadyState does for the arbiter.
func TestSendTraceDisabledZeroAlloc(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	const rounds = 64
	// One throwaway episode to warm the mailbox shards' append slices.
	c.Run(func(p *Proc) {
		next := (p.ID() + 1) % 2
		for i := 0; i < rounds; i++ {
			p.Send(next, "warm", 0, nil, 64)
			p.RecvEach("warm", 0, 1, nil)
			p.Advance(1)
		}
	})
	avg := testing.AllocsPerRun(5, func() {
		c.Run(func(p *Proc) {
			next := (p.ID() + 1) % 2
			for i := 0; i < rounds; i++ {
				p.Send(next, "ring", 0, nil, 64)
				p.RecvEach("ring", 0, 1, nil)
				p.Advance(1)
			}
		})
	})
	// c.Run itself allocates its episode bookkeeping (goroutines,
	// WaitGroup); the budget tolerates that fixed overhead but not a
	// per-round cost — with rounds=64 even one alloc per send would
	// blow far past it.
	if avg > 32 {
		t.Fatalf("untraced send path allocates: %.1f allocs per episode (budget 32 for episode setup)", avg)
	}
}

// TestTracedRunDeterministic runs the same traced workload twice —
// sends, total-order drains, arbiter locks, barriers, and memory
// charges all firing — and requires byte-identical JSON. Under -race
// this doubles as the lane-append safety check: the arbiter writing a
// grant record into a blocked grantee's lane must be ordered by the
// grant handoff, not by luck.
func TestTracedRunDeterministic(t *testing.T) {
	episode := func() []byte {
		tr := obs.NewTrace()
		cfg := DefaultConfig(4)
		cfg.Trace = tr
		c := NewCluster(cfg)
		c.Run(func(p *Proc) {
			procs := p.NProcs()
			me := p.ID()
			mem := &p.Cluster().Mem
			mem.Alloc(me, "test.buf", 1024)
			for round := 0; round < 3; round++ {
				// Contended lock: everyone hammers resource 1.
				p.AcquireResource(1, p.Clock(), nil)
				p.Advance(5)
				p.ReleaseResource(1, p.Clock())
				// All-to-all exchange with a total-order drain.
				for q := 0; q < procs; q++ {
					if q != me {
						p.Send(q, "x", round, nil, 128)
					}
				}
				p.RecvEach("x", round, procs-1, nil)
				p.TraceMark("round", p.Clock(), int64(round))
				p.BarrierExchange(100+round, nil, 0, nil)
			}
			mem.Free(me, "test.buf", 1024)
			p.TraceSpan("body", 0, p.Clock(), 0)
		})
		return tr.JSON()
	}
	a, b := episode(), episode()
	if len(a) == 0 || !bytes.Contains(a, []byte(`"cat":"lock"`)) {
		t.Fatalf("trace missing lock events:\n%s", a)
	}
	for _, want := range []string{`"cat":"send"`, `"cat":"deliver"`, `"cat":"barrier"`, `"cat":"mem"`, `"cat":"mark"`, `"cat":"app"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("trace missing %s events", want)
		}
	}
	if !bytes.Equal(a, b) {
		t.Fatal("traced run is not byte-reproducible")
	}
}
