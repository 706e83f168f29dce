// Tests for the sharded scheduler (DESIGN.md §10): the per-processor
// mailbox shards must preserve the exact drain semantics of the old
// single-lock scheduler, mailbox recycling must never lose or leak
// messages across phase tags, and the epoch-based quiescence detection
// must keep the conservative arbiter's contract — decisions only at
// true cluster quiescence, grant hooks before any grantee resumes —
// under heavy interleaving of blocking, delivery, and grants.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestMailboxShardDrainEquivalence floods one receiver from several
// concurrent senders — scrambled real-time arrival, deliberate sentAt
// ties across senders, and per-sender same-clock bursts that only the
// sequence number orders — and checks the RecvEach drain against an
// independently sorted (sentAt, from, seq) reference: the single-lock
// scheduler's semantics, restated as a specification.
func TestMailboxShardDrainEquivalence(t *testing.T) {
	const senders, burst, rounds = 6, 3, 4
	type key struct {
		sentAt float64
		from   int
		ord    int // per-sender program order, the observable stand-in for seq
	}
	for trial := 0; trial < 20; trial++ {
		c := NewCluster(DefaultConfig(senders + 1))
		var got []key
		var want []key
		c.Run(func(p *Proc) {
			if p.ID() == senders {
				p.RecvEach("eq", 0, senders*burst*rounds, func(from int, payload any) {
					got = append(got, payload.(key))
				})
				return
			}
			ord := 0
			for r := 0; r < rounds; r++ {
				// Scramble real-time order without touching simulated time.
				if (p.ID()+r)%2 == 0 {
					time.Sleep(time.Duration(p.ID()) * 100 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
				// A same-clock burst: identical sentAt, ordered only by seq.
				for b := 0; b < burst; b++ {
					k := key{sentAt: p.Clock(), from: p.ID(), ord: ord}
					p.Send(senders, "eq", 0, k, 16)
					ord++
				}
				// Senders sharing a parity advance identically, creating
				// cross-sender sentAt ties that fall back to sender id,
				// while the other parity's clocks diverge.
				p.Advance(float64(10 * (r + 1 + p.ID()%2)))
			}
		})
		for _, k := range got {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.sentAt != b.sentAt {
				return a.sentAt < b.sentAt
			}
			if a.from != b.from {
				return a.from < b.from
			}
			return a.ord < b.ord
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: drain position %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMailboxRecycleAcrossPhases drains per-phase mailboxes in the
// reverse of their send order, so every drain empties and recycles a
// mailbox while many earlier-phase mailboxes still hold messages: no
// message may be lost, cross-delivered, or reordered by the reuse.
func TestMailboxRecycleAcrossPhases(t *testing.T) {
	const phases = 100
	c := NewCluster(DefaultConfig(2))
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			for tag := 0; tag < phases; tag++ {
				p.Send(1, "ph", tag, tag, 8)
			}
			return
		}
		for tag := phases - 1; tag >= 0; tag-- {
			from, v := recvOne(p, "ph", tag)
			if from != 0 || v.(int) != tag {
				t.Errorf("tag %d: got from=%d payload=%v", tag, from, v)
			}
		}
	})
}

// TestGrantHooksSnapshotBeforeGranteesResume pins the two-phase grant:
// when several resources are granted at one quiescent instant, every
// onGrant hook must run before any grantee resumes — the conservative
// snapshot contract the TreadMarks lock grant relies on. A one-phase
// implementation that wakes grantee A before running B's hook fails
// this under real scheduling.
func TestGrantHooksSnapshotBeforeGranteesResume(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		c := NewCluster(DefaultConfig(4))
		var resumed atomic.Int64
		var seen [4]int64
		c.Run(func(p *Proc) {
			id := p.ID()
			p.AcquireResource(id, float64(id), func() {
				seen[id] = resumed.Load()
			})
			resumed.Add(1)
			p.Advance(1)
			p.ReleaseResource(id, p.Clock())
		})
		for id, s := range seen {
			if s != 0 {
				t.Fatalf("trial %d: proc %d's grant hook saw %d grantees already resumed", trial, id, s)
			}
		}
	}
}

// TestBlockingOutsideRunPanics pins the ownership rule: every blocking
// operation panics at entry when called outside Cluster.Run, before it
// takes a lock or publishes wait state. A normal Run on the same
// cluster afterwards must then complete, which it could not if a
// rejected call had left a waiter, a held lock or a skewed runnable
// count behind.
func TestBlockingOutsideRunPanics(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	for _, tc := range []struct {
		name string
		proc int
		op   func(p *Proc)
	}{
		{"RecvEach", 1, func(p *Proc) { p.RecvEach("ext", 0, 1, nil) }},
		{"Barrier", 0, func(p *Proc) { p.BarrierExchange(1, nil, 0, nil) }},
		{"AcquireResource", 1, func(p *Proc) { p.AcquireResource(3, 0, nil) }},
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("sim: processor %d blocks outside Cluster.Run", tc.proc)
				if r := recover(); r != want {
					t.Errorf("%s outside Run: recovered %v, want %q", tc.name, r, want)
				}
			}()
			tc.op(c.Proc(tc.proc))
		}()
	}
	c.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, "ext", 0, "hello", 8)
		} else if _, v := recvOne(p, "ext", 0); v != "hello" {
			t.Errorf("payload = %v", v)
		}
		p.BarrierExchange(1, nil, 0, nil)
		p.AcquireResource(3, float64(p.ID()), nil)
		p.ReleaseResource(3, p.Clock())
	})
	if got := TotalLockStat(c.Sync.Snapshot()).Acquires; got != 2 {
		t.Fatalf("acquires = %d, want 2", got)
	}
}

// TestQuiescenceEpochTorture interleaves every blocking primitive —
// mailbox receives, arbiter acquires on two contended locks, and
// barriers — across rotating roles and scrambled real-time schedules,
// and demands the whole run be bit-identical: per-processor clocks,
// makespan, grant count, and the sync grid. This is the stress for the
// atomic-counter + epoch quiescence detection; a decision taken at a
// false quiescent instant shifts a grant and changes the times.
func TestQuiescenceEpochTorture(t *testing.T) {
	const procs, roundsN = 8, 24
	run := func(scramble bool) ([]uint64, int64) {
		c := NewCluster(DefaultConfig(procs))
		var grants atomic.Int64
		c.Run(func(p *Proc) {
			next := (p.ID() + 1) % procs
			for r := 0; r < roundsN; r++ {
				if scramble && (p.ID()+r)%5 == 0 {
					time.Sleep(time.Duration((p.ID()+r)%3) * 50 * time.Microsecond)
				}
				// Delivery leg: ring exchange, one message per round.
				p.Send(next, "torture", r, p.ID(), 32)
				p.RecvEach("torture", r, 1, func(from int, payload any) {
					p.Advance(1.5)
				})
				// Lock leg: rotating subset contends on two resources, so
				// grants of one lock reshape who requests the other.
				if (p.ID()+r)%3 == 0 {
					res := r % 2
					free := p.AcquireResource(res, p.Clock(), nil)
					if free > p.Clock() {
						p.AdvanceTo(free)
					}
					grants.Add(1)
					p.Advance(2.25)
					p.ReleaseResource(res, p.Clock())
				}
				// Quiescence churn: a barrier every few rounds forces full
				// block/release cycles through the barrier path too.
				if r%6 == 5 {
					p.BarrierExchange(1000+r, nil, 0, nil)
				}
			}
		})
		clocks := make([]uint64, procs)
		for i := 0; i < procs; i++ {
			clocks[i] = math.Float64bits(c.Proc(i).Time())
		}
		return clocks, grants.Load()
	}
	refClocks, refGrants := run(false)
	if want := int64(procs * roundsN / 3); refGrants != want {
		t.Fatalf("grant count = %d, want %d", refGrants, want)
	}
	for trial := 0; trial < 15; trial++ {
		clocks, grants := run(trial%2 == 1)
		if grants != refGrants {
			t.Fatalf("trial %d: %d grants != reference %d", trial, grants, refGrants)
		}
		for i := range clocks {
			if clocks[i] != refClocks[i] {
				t.Fatalf("trial %d: proc %d time bits %x != reference %x (times must be bit-identical)",
					trial, i, clocks[i], refClocks[i])
			}
		}
	}
}

// TestDrainBufferReuseAcrossSizes exercises the drain scratch buffer
// growth path: alternating large and small collective drains on one
// processor must each see exactly their own messages.
func TestDrainBufferReuseAcrossSizes(t *testing.T) {
	const procs = 5
	c := NewCluster(DefaultConfig(procs))
	c.Run(func(p *Proc) {
		for r := 0; r < 10; r++ {
			if p.ID() == 0 {
				n := procs - 1
				if r%2 == 1 {
					n = 1 // only proc 1 sends on odd rounds
				}
				sum := 0
				p.RecvEach("sz", r, n, func(from int, payload any) {
					sum += payload.(int)
				})
				want := 0
				for q := 1; q <= n; q++ {
					want += q * (r + 1)
				}
				if sum != want {
					t.Errorf("round %d: sum = %d, want %d", r, sum, want)
				}
			} else if r%2 == 0 || p.ID() == 1 {
				p.Send(0, "sz", r, p.ID()*(r+1), 8)
			}
		}
	})
}

// TestArbiterZeroAllocSteadyState guards the reusable-waiter fast path:
// a contended steady-state acquire/release cycle must not allocate (the
// per-proc waiter and its grant channel are reused).
func TestArbiterZeroAllocSteadyState(t *testing.T) {
	var allocs float64
	NewCluster(DefaultConfig(1)).Run(func(p *Proc) {
		p.AcquireResource(7, 0, nil)
		p.ReleaseResource(7, 0)
		allocs = testing.AllocsPerRun(100, func() {
			p.AcquireResource(7, 0, nil)
			p.ReleaseResource(7, 0)
		})
	})
	if allocs > 0 {
		t.Fatalf("steady-state acquire/release allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestConcurrentAcquireOnOneProcPanics pins the documented invariant
// behind the reusable waiter: a processor has at most one resource
// acquire in flight. Processor 1's goroutine breaks the ownership rule
// on purpose and occupies processor 0's waiter slot; the acquire stays
// in flight because processor 0 is runnable, so the cluster cannot
// quiesce. Processor 0's own acquire must then panic, and the queued
// one is granted once processor 0 returns.
func TestConcurrentAcquireOnOneProcPanics(t *testing.T) {
	c := NewCluster(DefaultConfig(2))
	p0 := c.Proc(0)
	c.Run(func(p *Proc) {
		if p.ID() == 1 {
			p0.AcquireResource(1, 0, nil)
			p0.ReleaseResource(1, 0)
			return
		}
		for !p.inflight.Load() {
			runtime.Gosched()
		}
		defer func() {
			if r := recover(); r == nil {
				t.Error("second concurrent acquire did not panic")
			}
		}()
		p.AcquireResource(2, 0, nil)
	})
}
