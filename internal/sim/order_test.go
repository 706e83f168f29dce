package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEnvelopeTotalOrderKey pins the comparator down, including the two
// tie levels: equal sentAt falls back to sender id, and equal
// (sentAt, from) — two messages injected by one sender at the same local
// time — falls back to the per-sender sequence number.
func TestEnvelopeTotalOrderKey(t *testing.T) {
	cases := []struct {
		a, b envelope
		want bool
	}{
		{envelope{from: 1, seq: 9, sentAt: 10}, envelope{from: 0, seq: 1, sentAt: 20}, true},
		{envelope{from: 0, seq: 1, sentAt: 20}, envelope{from: 1, seq: 9, sentAt: 10}, false},
		// sentAt tie: sender id decides.
		{envelope{from: 1, seq: 9, sentAt: 10}, envelope{from: 2, seq: 1, sentAt: 10}, true},
		{envelope{from: 2, seq: 1, sentAt: 10}, envelope{from: 1, seq: 9, sentAt: 10}, false},
		// full (sentAt, from) tie: sequence number decides.
		{envelope{from: 1, seq: 3, sentAt: 10}, envelope{from: 1, seq: 4, sentAt: 10}, true},
		{envelope{from: 1, seq: 4, sentAt: 10}, envelope{from: 1, seq: 3, sentAt: 10}, false},
		// identical keys: strictly "not before" both ways.
		{envelope{from: 1, seq: 3, sentAt: 10}, envelope{from: 1, seq: 3, sentAt: 10}, false},
	}
	for i, c := range cases {
		if got := compareEnvelopes(c.a, c.b) < 0; got != c.want {
			t.Errorf("case %d: precedes = %v, want %v", i, got, c.want)
		}
	}
}

// TestRecvEachDrainsInTotalOrder floods one mailbox from several senders
// whose real-time arrival order is deliberately scrambled; the receiver
// must still observe messages in (sentAt, from) order every trial.
func TestRecvEachDrainsInTotalOrder(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		c := NewCluster(DefaultConfig(4))
		var got []int
		c.Run(func(p *Proc) {
			if p.ID() == 3 {
				p.RecvEach("m", 0, 3, func(from int, payload any) {
					got = append(got, from)
				})
				return
			}
			// Sender 2 has the earliest simulated send time but the
			// latest real-time injection; sender 0 the reverse.
			p.Advance(float64(10 * (2 - p.ID())))
			time.Sleep(time.Duration(p.ID()) * time.Millisecond)
			p.Send(3, "m", 0, nil, 8)
		})
		want := []int{2, 1, 0} // ascending sentAt: 0us, 10us, 20us
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: drain order %v, want %v", trial, got, want)
			}
		}
	}
}

// TestRecvEachTieBreaksBySender: all senders inject at simulated time
// zero, so the order must fall back to sender id.
func TestRecvEachTieBreaksBySender(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		c := NewCluster(DefaultConfig(5))
		var got []int
		c.Run(func(p *Proc) {
			if p.ID() == 4 {
				p.RecvEach("tie", 7, 4, func(from int, payload any) {
					got = append(got, from)
				})
				return
			}
			time.Sleep(time.Duration((3-p.ID())*2) * time.Millisecond)
			p.Send(4, "tie", 7, p.ID(), 0)
		})
		for i, from := range got {
			if from != i {
				t.Fatalf("trial %d: tie-break order %v, want ascending sender ids", trial, got)
			}
		}
	}
}

// TestRecvEachDeterministicTimes replays a gather-like pattern — receives
// interleaved with per-message unpack charges, the combination that used
// to wobble with arrival order — and demands bit-identical clocks.
func TestRecvEachDeterministicTimes(t *testing.T) {
	run := func() float64 {
		c := NewCluster(DefaultConfig(5))
		c.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.RecvEach("g", 1, 4, func(from int, payload any) {
					p.Advance(float64(3 + from)) // per-message unpack cost
				})
				return
			}
			p.Advance(float64(p.ID()) * 7.3)
			p.Send(0, "g", 1, nil, 512*p.ID())
		})
		return c.MaxTime()
	}
	ref := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != ref {
			t.Fatalf("run %d: max time %v != %v", i, got, ref)
		}
	}
}

// TestResourceArbiterGrantOrder: grants must follow (request key, proc)
// order, not real-time arrival order, across many trials.
func TestResourceArbiterGrantOrder(t *testing.T) {
	cfg := DefaultConfig(4)
	for trial := 0; trial < 25; trial++ {
		c := NewCluster(cfg)
		var grants atomic.Int64
		var order []int
		c.Run(func(p *Proc) {
			// Proc 3 requests at the earliest simulated time but arrives
			// last in real time.
			p.Advance(float64(3-p.ID()) * 5)
			time.Sleep(time.Duration(p.ID()) * time.Millisecond)
			key := p.Clock() + cfg.LatencyUS
			p.AcquireResource(0, key, func() {
				order = append(order, p.ID())
			})
			grants.Add(1)
			p.Advance(2)
			p.ReleaseResource(0, p.Clock())
		})
		if grants.Load() != 4 {
			t.Fatalf("trial %d: %d grants", trial, grants.Load())
		}
		want := []int{3, 2, 1, 0} // ascending request key 0,5,10,15
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("trial %d: grant order %v, want %v", trial, order, want)
			}
		}
	}
}

// TestResourceArbiterPassesReleaseValue: the value handed to
// ReleaseResource must surface at the next grant.
func TestResourceArbiterPassesReleaseValue(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	var got float64
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			if v := p.AcquireResource(9, 0, nil); v != 0 {
				t.Errorf("first grant value = %v, want 0", v)
			}
			p.ReleaseResource(9, 123.5)
		} else {
			got = p.AcquireResource(9, 1, nil)
			p.ReleaseResource(9, 200)
		}
	})
	if got != 123.5 {
		t.Errorf("second grant value = %v, want 123.5", got)
	}
}

// TestInterruptChargesDeterministic hammers one target with handler
// calls from several callers; the per-caller shards must make the final
// float aggregate bit-identical no matter the real interleaving.
func TestInterruptChargesDeterministic(t *testing.T) {
	run := func() float64 {
		c := NewCluster(DefaultConfig(4))
		c.Proc(0).RegisterHandler("h", func(from int, req any) (any, int, float64) {
			return nil, 0, 0.1 * float64(from+1) // deliberately awkward floats
		})
		c.Run(func(p *Proc) {
			if p.ID() == 0 {
				return
			}
			for i := 0; i < 50; i++ {
				p.CallMulti([]CallSpec{{Target: 0, Kind: "h", ReqBytes: 8}})
			}
		})
		return c.Proc(0).Time()
	}
	ref := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != ref {
			t.Fatalf("run %d: interrupt aggregate %v != %v", i, got, ref)
		}
	}
}

// TestWireBytesPerFragmentHeaders: every fragment carries its own
// header, in both the byte count and the transfer time.
func TestWireBytesPerFragmentHeaders(t *testing.T) {
	cfg := DefaultConfig(2) // MaxMsgB 16384, header 32 => 16352B payload per fragment
	payload := 100000
	f := cfg.Frags(payload)
	if f != 7 { // ceil(100000/16352)
		t.Fatalf("Frags(%d) = %d, want 7", payload, f)
	}
	if got, want := cfg.WireBytes(payload), int64(payload)+7*32; got != want {
		t.Errorf("WireBytes(%d) = %d, want %d", payload, got, want)
	}
	if got, want := cfg.XferUS(payload), float64(payload+7*32)/cfg.BytesPerUS; got != want {
		t.Errorf("XferUS(%d) = %v, want %v", payload, got, want)
	}
	// Small payloads: exactly one header.
	if got, want := cfg.WireBytes(100), int64(132); got != want {
		t.Errorf("WireBytes(100) = %d, want %d", got, want)
	}
}

// TestSendRecvCountsFragmentBytes: the stats must account the
// per-fragment headers of a large one-way transfer.
func TestSendRecvCountsFragmentBytes(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	const payload = 100000
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, "big", 0, nil, payload)
		} else {
			p.RecvEach("big", 0, 1, nil)
		}
	})
	msgs, bytes := c.Stats.Totals()
	if want := c.Proc(0).Config().Frags(payload); msgs != want {
		t.Errorf("msgs = %d, want %d", msgs, want)
	}
	if want := c.Proc(0).Config().WireBytes(payload); bytes != want {
		t.Errorf("bytes = %d, want %d", bytes, want)
	}
}

// TestStatsShardsMerge: CountP writes land on per-proc shards and merge
// in Totals/Categories.
func TestStatsShardsMerge(t *testing.T) {
	s := &NewCluster(DefaultConfig(4)).Stats
	s.CountP(0, "a", 1, 10)
	s.CountP(3, "a", 2, 20)
	s.CountP(2, "b", 1, 5)
	cats := s.Categories()
	if cats["a"].Messages != 3 || cats["a"].Bytes != 30 {
		t.Errorf("cat a = %+v", cats["a"])
	}
	if cats["b"].Messages != 1 || cats["b"].Bytes != 5 {
		t.Errorf("cat b = %+v", cats["b"])
	}
	msgs, bytes := s.Totals()
	if msgs != 4 || bytes != 35 {
		t.Errorf("totals = %d msgs %d bytes", msgs, bytes)
	}
}
