package sim

import (
	"testing"
	"testing/quick"
)

func TestFragsBoundaries(t *testing.T) {
	cfg := DefaultConfig(2) // MaxMsgB 16384, header 32
	cases := []struct {
		payload int
		want    int64
	}{
		{0, 1},
		{100, 1},
		{16384 - 32, 1},  // exactly one fragment with header
		{16384 - 31, 2},  // one byte over
		{32768, 3},       // 32768+32 over two fragments
		{16 * 16384, 17}, // large transfer
	}
	for _, c := range cases {
		if got := cfg.Frags(c.payload); got != c.want {
			t.Errorf("Frags(%d) = %d, want %d", c.payload, got, c.want)
		}
	}
}

func TestFragsDisabled(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxMsgB = 0
	if cfg.Frags(1<<30) != 1 {
		t.Fatal("disabled fragmentation must count 1")
	}
}

func TestFragsMonotoneProperty(t *testing.T) {
	cfg := DefaultConfig(2)
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return cfg.Frags(x*8) <= cfg.Frags(y*8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSendCountsFragments(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, "big", 0, nil, 100000)
		} else {
			p.RecvEach("big", 0, 1, nil)
		}
	})
	msgs, _ := c.Stats.Totals()
	want := c.Proc(0).Config().Frags(100000)
	if msgs != want {
		t.Fatalf("large send counted %d msgs, want %d", msgs, want)
	}
}

func TestTagIsolation(t *testing.T) {
	// Messages with different tags must not cross phases even when the
	// send order interleaves.
	c := NewCluster(DefaultConfig(2))
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, "k", 2, "second", 8) // future phase first
			p.Send(1, "k", 1, "first", 8)
		} else {
			_, v1 := recvOne(p, "k", 1)
			_, v2 := recvOne(p, "k", 2)
			if v1.(string) != "first" || v2.(string) != "second" {
				t.Errorf("tag isolation broken: %v, %v", v1, v2)
			}
		}
	})
}

func TestCallMultiRespectsSlowestTarget(t *testing.T) {
	cfg := DefaultConfig(3)
	c := NewCluster(cfg)
	c.Proc(1).RegisterHandler("h", func(int, any) (any, int, float64) { return nil, 0, 5 })
	c.Proc(2).RegisterHandler("h", func(int, any) (any, int, float64) { return nil, 0, 500 })
	p0 := c.Proc(0)
	p0.CallMulti([]CallSpec{{Target: 1, Kind: "h"}, {Target: 2, Kind: "h"}})
	slow := cfg.LatencyUS + cfg.XferUS(0) + 500 + cfg.LatencyUS + cfg.XferUS(0)
	if got := p0.Clock(); got != slow {
		t.Fatalf("clock = %v, want slowest rtt %v", got, slow)
	}
}

func TestInterruptAggregationAcrossCalls(t *testing.T) {
	cfg := DefaultConfig(2)
	c := NewCluster(cfg)
	c.Proc(1).RegisterHandler("h", func(int, any) (any, int, float64) { return nil, 0, 2.5 })
	p0 := c.Proc(0)
	for i := 0; i < 4; i++ {
		p0.CallMulti([]CallSpec{{Target: 1, Kind: "h"}})
	}
	want := 4 * (cfg.InterruptUS + 2.5)
	if got := c.Proc(1).Time(); got != want { // clock 0: Time is the interrupt aggregate
		t.Fatalf("interrupt aggregate = %v, want %v", got, want)
	}
}
