package sim

import (
	"math"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/raceflag"
)

func tiny(procs int) Config {
	c := DefaultConfig(procs)
	return c
}

func TestAdvanceAndClock(t *testing.T) {
	c := NewCluster(tiny(2))
	p := c.Proc(0)
	p.Advance(10)
	p.Advance(5.5)
	if got := p.Clock(); got != 15.5 {
		t.Fatalf("clock = %v, want 15.5", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	c := NewCluster(tiny(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Proc(0).Advance(-1)
}

func TestCallRoundTripTiming(t *testing.T) {
	cfg := tiny(2)
	c := NewCluster(cfg)
	handlerUS := 7.0
	respBytes := 100
	c.Proc(1).RegisterHandler("ping", func(from int, req any) (any, int, float64) {
		if from != 0 {
			t.Errorf("from = %d", from)
		}
		return "pong", respBytes, handlerUS
	})
	p0 := c.Proc(0)
	p0.Advance(3)
	resp := p0.CallMulti([]CallSpec{{Target: 1, Kind: "ping", Req: "ping", ReqBytes: 50}})[0]
	if resp != "pong" {
		t.Fatalf("resp = %v", resp)
	}
	want := 3 + cfg.LatencyUS + cfg.XferUS(50) + handlerUS + cfg.LatencyUS + cfg.XferUS(respBytes)
	if got := p0.Clock(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("caller clock = %v, want %v", got, want)
	}
	// Target charged interrupt + handler cost, folded into Time (not
	// Clock, to preserve determinism).
	wantTgt := cfg.InterruptUS + handlerUS
	if got := c.Proc(1).Clock(); got != 0 {
		t.Fatalf("target clock = %v, want 0 (interrupts are side-accounted)", got)
	}
	if got := c.Proc(1).Time(); math.Abs(got-wantTgt) > 1e-9 {
		t.Fatalf("target Time = %v, want %v", got, wantTgt)
	}
	msgs, bytes := c.Stats.Totals()
	if msgs != 2 {
		t.Fatalf("msgs = %d, want 2", msgs)
	}
	wantBytes := int64(50 + respBytes + 2*cfg.MsgHeaderB)
	if bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", bytes, wantBytes)
	}
}

func TestCallMultiOverlapsRoundTrips(t *testing.T) {
	cfg := tiny(3)
	c := NewCluster(cfg)
	for i := 1; i <= 2; i++ {
		c.Proc(i).RegisterHandler("get", func(from int, req any) (any, int, float64) {
			return nil, 0, 10
		})
	}
	p0 := c.Proc(0)
	p0.CallMulti([]CallSpec{
		{Target: 1, Kind: "get"},
		{Target: 2, Kind: "get"},
	})
	// Overlapped: one RTT, not two.
	want := cfg.LatencyUS + cfg.XferUS(0) + 10 + cfg.LatencyUS + cfg.XferUS(0)
	if got := p0.Clock(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("clock = %v, want single RTT %v", got, want)
	}
	msgs, _ := c.Stats.Totals()
	if msgs != 4 {
		t.Fatalf("msgs = %d, want 4", msgs)
	}
}

func TestSelfCallPanics(t *testing.T) {
	c := NewCluster(tiny(2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on self-call")
		}
	}()
	c.Proc(0).CallMulti([]CallSpec{{Target: 0, Kind: "x"}})
}

// recvOne takes the one message of (kind, tag) through RecvEach and
// returns its sender and payload.
func recvOne(p *Proc, kind string, tag int) (from int, payload any) {
	p.RecvEach(kind, tag, 1, func(f int, v any) { from, payload = f, v })
	return from, payload
}

func TestSendRecvCausality(t *testing.T) {
	cfg := tiny(2)
	c := NewCluster(cfg)
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(100)
			p.Send(1, "data", 0, 42, 1000)
		} else {
			from, payload := recvOne(p, "data", 0)
			if from != 0 || payload.(int) != 42 {
				t.Errorf("got from=%d payload=%v", from, payload)
			}
			// Receiver clock must be at least send time + latency + xfer.
			want := 100 + cfg.LatencyUS + cfg.XferUS(1000)
			if p.Clock() < want {
				t.Errorf("receiver clock %v < %v", p.Clock(), want)
			}
		}
	})
	msgs, _ := c.Stats.Totals()
	if msgs != 1 {
		t.Fatalf("one-way send counted %d msgs", msgs)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	cfg := tiny(4)
	c := NewCluster(cfg)
	c.Run(func(p *Proc) {
		p.Advance(float64(100 * (p.ID() + 1))) // proc 3 is slowest: 400
		p.BarrierExchange(1, nil, 0, nil)
		// All release at >= 400 (+ barrier costs).
		if p.Clock() < 400 {
			t.Errorf("proc %d released at %v before slowest arrival", p.ID(), p.Clock())
		}
	})
	msgs, _ := c.Stats.Totals()
	if msgs != int64(2*(cfg.Procs-1)) {
		t.Fatalf("barrier msgs = %d, want %d", msgs, 2*(cfg.Procs-1))
	}
}

func TestBarrierDeterministicRelease(t *testing.T) {
	// Run the same barrier pattern several times: release times must be
	// identical regardless of goroutine scheduling.
	var ref float64
	for trial := 0; trial < 5; trial++ {
		c := NewCluster(tiny(8))
		c.Run(func(p *Proc) {
			p.Advance(float64(p.ID()) * 13.7)
			p.BarrierExchange(1, nil, 0, nil)
			p.Advance(float64(p.ID()) * 3.1)
			p.BarrierExchange(2, nil, 0, nil)
		})
		got := c.MaxTime()
		if trial == 0 {
			ref = got
		} else if got != ref {
			t.Fatalf("trial %d: max time %v != %v", trial, got, ref)
		}
	}
}

func TestBarrierExchangeCombines(t *testing.T) {
	c := NewCluster(tiny(4))
	var sum int64
	c.Run(func(p *Proc) {
		reply := p.BarrierExchange(7, p.ID()+1, 8, func(contrib []any) ([]any, []int, float64) {
			total := 0
			for _, x := range contrib {
				total += x.(int)
			}
			replies := make([]any, len(contrib))
			bytes := make([]int, len(contrib))
			for i := range replies {
				replies[i] = total
				bytes[i] = 8
			}
			return replies, bytes, 1
		})
		atomic.AddInt64(&sum, int64(reply.(int)))
	})
	if sum != 4*(1+2+3+4) {
		t.Fatalf("combined sum wrong: %d", sum)
	}
}

func TestBarrierReusableAcrossEpisodes(t *testing.T) {
	c := NewCluster(tiny(3))
	c.Run(func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.BarrierExchange(99, nil, 0, nil)
			p.Advance(1)
		}
	})
	// 10 episodes * 2*(n-1) messages.
	msgs, _ := c.Stats.Totals()
	if msgs != 10*2*2 {
		t.Fatalf("msgs = %d", msgs)
	}
}

// TestBarrierEpisodeAllocs pins that a plain barrier episode allocates
// nothing on the host: without a combine there are no replies and no
// reply sizes to keep. The count is the difference between two round
// counts, so the cluster's set-up cancels out; collection is paused
// while counting, as the runtime allocates a few objects of its own
// after each GC cycle.
func TestBarrierEpisodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(rounds int) func() {
		return func() {
			NewCluster(DefaultConfig(4)).Run(func(p *Proc) {
				for i := 0; i < rounds; i++ {
					p.BarrierExchange(1, nil, 0, nil)
				}
			})
		}
	}
	const from, to = 100, 400
	lo := testing.AllocsPerRun(3, run(from))
	hi := testing.AllocsPerRun(3, run(to))
	if per := (hi - lo) / (to - from); per > 0.1 {
		t.Fatalf("a 4-proc barrier episode allocates %.3f times, want 0", per)
	}
}

func TestSingleProcBarrierIsFree(t *testing.T) {
	c := NewCluster(tiny(1))
	p := c.Proc(0)
	p.BarrierExchange(1, nil, 0, nil)
	if p.Clock() != 0 {
		t.Fatalf("1-proc barrier advanced clock to %v", p.Clock())
	}
	msgs, _ := c.Stats.Totals()
	if msgs != 0 {
		t.Fatalf("1-proc barrier sent %d msgs", msgs)
	}
}

func TestStatsCategories(t *testing.T) {
	c := NewCluster(tiny(2))
	c.Stats.CountP(0, "a", 2, 100)
	c.Stats.CountP(1, "b", 1, 50)
	c.Stats.CountP(1, "a", 1, 10)
	cats := c.Stats.Categories()
	if cats["a"].Messages != 3 || cats["a"].Bytes != 110 {
		t.Fatalf("cat a = %+v", cats["a"])
	}
	if cats["b"].Messages != 1 {
		t.Fatalf("cat b = %+v", cats["b"])
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	c := NewCluster(tiny(2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for missing handler")
		}
	}()
	c.Proc(0).CallMulti([]CallSpec{{Target: 1, Kind: "nope"}})
}

func TestXferUS(t *testing.T) {
	cfg := tiny(2)
	got := cfg.XferUS(4000 - cfg.MsgHeaderB)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("XferUS = %v, want 100 (4000B at 40B/us)", got)
	}
}

func TestUniqueBarrierID(t *testing.T) {
	c := NewCluster(tiny(2))
	a, b := c.UniqueBarrierID(), c.UniqueBarrierID()
	if a == b {
		t.Fatal("ids collide")
	}
	// Per-cluster determinism: a fresh cluster hands out the same ids.
	if c2 := NewCluster(tiny(2)); c2.UniqueBarrierID() != a {
		t.Fatal("ids are not a pure function of the cluster's history")
	}
}
