package tmk

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// harness builds a DSM over nprocs processors with nwords float64 slots
// of shared memory, initialized to zero by proc 0.
func harness(t testing.TB, nprocs, nwords int) (*DSM, vm.Addr) {
	t.Helper()
	c := sim.NewCluster(sim.DefaultConfig(nprocs))
	d := New(c, 1024, 1<<22)
	addr := d.Alloc(8 * nwords)
	d.SealInit()
	return d, addr
}

func TestWriteBarrierReadVisibility(t *testing.T) {
	d, addr := harness(t, 2, 8)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		if p.ID() == 0 {
			n.Space().WriteF64(addr, 42.0)
		}
		n.Barrier(1)
		if got := n.Space().ReadF64(addr); got != 42.0 {
			t.Errorf("proc %d read %v, want 42", p.ID(), got)
		}
		n.Barrier(2)
	})
}

func TestInvalidationIsLazy(t *testing.T) {
	// Before the barrier, proc 1 must still see the old value (release
	// consistency: no update propagation without synchronization).
	d, addr := harness(t, 2, 8)
	var phase sync.WaitGroup
	phase.Add(1)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		if p.ID() == 0 {
			n.Space().WriteF64(addr, 1.0)
			phase.Done()
		} else {
			phase.Wait() // real-time ordering: write definitely happened
			if got := n.Space().ReadF64(addr); got != 0 {
				t.Errorf("update propagated without synchronization: %v", got)
			}
		}
		n.Barrier(1)
		if got := n.Space().ReadF64(addr); got != 1.0 {
			t.Errorf("proc %d: update lost after barrier: %v", p.ID(), got)
		}
	})
}

func TestMultipleWriterFalseSharingMerge(t *testing.T) {
	// Two processors write disjoint words of the same page concurrently;
	// after the barrier both see both writes (the multiple-writer
	// protocol's diff merge).
	d, addr := harness(t, 2, 8)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		me := p.ID()
		n.Space().WriteF64(addr+vm.Addr(8*me), float64(me+1))
		n.Barrier(1)
		for w := 0; w < 2; w++ {
			if got := n.Space().ReadF64(addr + vm.Addr(8*w)); got != float64(w+1) {
				t.Errorf("proc %d sees word %d = %v, want %v", me, w, got, w+1)
			}
		}
		n.Barrier(2)
	})
}

func TestManyProcsFalseSharingMerge(t *testing.T) {
	const np = 8
	d, addr := harness(t, np, np)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		n.Space().WriteF64(addr+vm.Addr(8*p.ID()), float64(p.ID()+100))
		n.Barrier(1)
		for w := 0; w < np; w++ {
			if got := n.Space().ReadF64(addr + vm.Addr(8*w)); got != float64(w+100) {
				t.Errorf("proc %d: word %d = %v", p.ID(), w, got)
			}
		}
		n.Barrier(2)
	})
}

func TestSuccessiveIntervalsAccumulate(t *testing.T) {
	// One writer updates across several barrier epochs; a reader that
	// skips epochs must receive all missing diffs at once.
	d, addr := harness(t, 2, 8)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for it := 1; it <= 5; it++ {
			if p.ID() == 0 {
				n.Space().WriteF64(addr, float64(it))
				n.Space().WriteF64(addr+vm.Addr(8*it%64), float64(it*10))
			}
			n.Barrier(it)
			// Reader only checks at the end.
		}
		if p.ID() == 1 {
			if got := n.Space().ReadF64(addr); got != 5 {
				t.Errorf("reader got %v after 5 epochs", got)
			}
		}
		n.Barrier(100)
	})
}

func TestWriterSeesOwnWritesAfterInvalidation(t *testing.T) {
	// A writer whose page is invalidated by a concurrent (false-sharing)
	// writer must, after merging, still see its own contribution.
	d, addr := harness(t, 2, 8)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		me := p.ID()
		for it := 0; it < 3; it++ {
			n.Space().WriteF64(addr+vm.Addr(8*me), float64(10*it+me))
			n.Barrier(10 + it)
			mine := n.Space().ReadF64(addr + vm.Addr(8*me))
			theirs := n.Space().ReadF64(addr + vm.Addr(8*(1-me)))
			if mine != float64(10*it+me) {
				t.Errorf("proc %d it %d: own write lost: %v", me, it, mine)
			}
			if theirs != float64(10*it+1-me) {
				t.Errorf("proc %d it %d: peer write missing: %v", me, it, theirs)
			}
			n.Barrier(20 + it)
		}
	})
}

func TestRandomReplayEquivalence(t *testing.T) {
	// Property-style stress over random cluster sizes and write plans:
	// each epoch every proc writes random slots it owns, and after every
	// barrier every node's whole view must equal a plain-Go replay. The
	// low half of the array is owned slot-by-slot mod nprocs (pages
	// heavily false-shared: page = 128 words), the high half in
	// page-aligned per-proc blocks (disjoint pages), and the initial
	// image is non-zero, so pages are read while still shared with the
	// sealed image, written (the copy-on-write break), and patched by
	// diffs in every combination. Run under -race this also checks that
	// no node ever writes bytes another still reads.
	const epochs = 6
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		np := 4 + rng.Intn(5)
		half := 128 * np // one page per proc in the blocked half
		words := 2 * half

		c := sim.NewCluster(sim.DefaultConfig(np))
		d := New(c, 1024, 1<<22)
		addr := d.Alloc(8 * words)
		ref := make([]float64, words)
		for s := range ref {
			ref[s] = float64(s + 1)
			d.Node(0).Space().WriteF64(addr+vm.Addr(8*s), ref[s])
		}
		d.SealInit()

		type write struct {
			slot int
			val  float64
		}
		plans := make([][][]write, np)    // [proc][epoch][]write
		refs := make([][]float64, epochs) // [epoch] the array after that epoch
		for pr := range plans {
			plans[pr] = make([][]write, epochs)
		}
		for e := 0; e < epochs; e++ {
			for pr := 0; pr < np; pr++ {
				for i := rng.Intn(20); i > 0; i-- {
					slot := rng.Intn(half/np)*np + pr // interleaved
					if rng.Intn(2) == 0 {
						slot = half + 128*pr + rng.Intn(128) // blocked
					}
					w := write{slot, rng.Float64()}
					plans[pr][e] = append(plans[pr][e], w)
					ref[w.slot] = w.val
				}
			}
			refs[e] = append([]float64(nil), ref...)
		}

		c.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			for e := 0; e < epochs; e++ {
				for _, w := range plans[p.ID()][e] {
					n.Space().WriteF64(addr+vm.Addr(8*w.slot), w.val)
				}
				n.Barrier(1000 + e)
				for s, want := range refs[e] {
					if got := n.Space().ReadF64(addr + vm.Addr(8*s)); got != want {
						t.Errorf("seed %d, %d procs: proc %d epoch %d slot %d: %v != %v",
							seed, np, p.ID(), e, s, got, want)
						break // keep joining barriers so the peers can finish
					}
				}
			}
			n.Barrier(2000)
		})
		d.Close()
	}
}

func TestLockTransferConsistency(t *testing.T) {
	// Lock-protected increments: every processor increments a shared
	// counter under a lock; the total must be exact (diffs flow through
	// lock acquires, not just barriers).
	const np = 4
	const iters = 5
	d, addr := harness(t, np, 4)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		for i := 0; i < iters; i++ {
			n.AcquireLock(3)
			v := n.Space().ReadF64(addr)
			n.Space().WriteF64(addr, v+1)
			n.ReleaseLock(3)
		}
		n.Barrier(1)
		if got := n.Space().ReadF64(addr); got != float64(np*iters) {
			t.Errorf("proc %d: counter = %v, want %d", p.ID(), got, np*iters)
		}
		n.Barrier(2)
	})
}

func TestWriteAllSkipsTwin(t *testing.T) {
	d, addr := harness(t, 2, 256)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		if p.ID() == 0 {
			pg := n.Space().Arena().PageOf(addr)
			n.TwinForWrite(pg, true) // WRITE_ALL path
			for i := 0; i < 128; i++ {
				n.Space().WriteF64(addr+vm.Addr(8*i), float64(i))
			}
			if n.TwinsMade != 0 {
				t.Errorf("WRITE_ALL made %d twins", n.TwinsMade)
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			for i := 0; i < 128; i++ {
				if got := n.Space().ReadF64(addr + vm.Addr(8*i)); got != float64(i) {
					t.Errorf("slot %d = %v", i, got)
					break
				}
			}
		}
		n.Barrier(2)
	})
}

func TestFullPageSnapshotSupersedesOlderDiffs(t *testing.T) {
	// Writer A updates a word (normal diff, epoch 1); writer B then
	// rewrites the whole page WRITE_ALL-style (epoch 2) after having
	// fetched A's update. A late reader must end up with B's content
	// exactly, and its applied-state must reflect the snapshot.
	d, addr := harness(t, 3, 128)
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		if p.ID() == 0 {
			n.Space().WriteF64(addr, 1.0)
		}
		n.Barrier(1)
		if p.ID() == 1 {
			// Fetch current page, then overwrite it entirely.
			pg := n.Space().Arena().PageOf(addr)
			n.FetchPages([]vm.PageID{pg}, "tmk.diff")
			n.TwinForWrite(pg, true)
			for i := 0; i < 128; i++ {
				n.Space().WriteF64(addr+vm.Addr(8*i), 100+float64(i))
			}
		}
		n.Barrier(2)
		// Proc 2 reads only now: needs A's diff (superseded) + B's snapshot.
		if p.ID() == 2 {
			for i := 0; i < 128; i++ {
				if got := n.Space().ReadF64(addr + vm.Addr(8*i)); got != 100+float64(i) {
					t.Errorf("slot %d = %v, want %v", i, got, 100+float64(i))
					break
				}
			}
		}
		n.Barrier(3)
	})
}

func TestFetchPagesAggregatesMessages(t *testing.T) {
	// Proc 0 writes 10 different pages; proc 1 fetching them one at a
	// time pays 10 exchanges, while FetchPages with the full list pays 1.
	const pages = 10
	run := func(aggregated bool) int64 {
		d, addr := harness(t, 2, 128*pages) // page = 1024B = 128 words
		d.cluster.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			if p.ID() == 0 {
				for pg := 0; pg < pages; pg++ {
					n.Space().WriteF64(addr+vm.Addr(1024*pg), float64(pg))
				}
			}
			n.Barrier(1)
			if p.ID() == 1 {
				arena := n.Space().Arena()
				var ids []vm.PageID
				for pg := 0; pg < pages; pg++ {
					ids = append(ids, arena.PageOf(addr+vm.Addr(1024*pg)))
				}
				if aggregated {
					n.FetchPages(ids, "tmk.diff")
				} else {
					for _, id := range ids {
						n.FetchPages([]vm.PageID{id}, "tmk.diff")
					}
				}
			}
			n.Barrier(2)
		})
		cats := d.cluster.Stats.Categories()
		return cats["tmk.diff"].Messages
	}
	agg := run(true)
	per := run(false)
	if agg != 2 {
		t.Errorf("aggregated fetch used %d messages, want 2", agg)
	}
	if per != 2*pages {
		t.Errorf("per-page fetch used %d messages, want %d", per, 2*pages)
	}
}

func TestDemandFaultCountsAndTraffic(t *testing.T) {
	// Base TreadMarks behaviour: each invalid page read costs one fault
	// and one exchange.
	d, addr := harness(t, 2, 256) // 2 pages
	d.cluster.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		if p.ID() == 0 {
			n.Space().WriteF64(addr, 1)
			n.Space().WriteF64(addr+1024, 2)
		}
		n.Barrier(1)
		if p.ID() == 1 {
			before := n.Space().ReadFaults
			_ = n.Space().ReadF64(addr)
			_ = n.Space().ReadF64(addr + 1024)
			if n.Space().ReadFaults-before != 2 {
				t.Errorf("faults = %d, want 2", n.Space().ReadFaults-before)
			}
		}
		n.Barrier(2)
	})
	cats := d.cluster.Stats.Categories()
	if cats["tmk.diff"].Messages != 4 {
		t.Errorf("demand traffic = %d msgs, want 4", cats["tmk.diff"].Messages)
	}
}

// TestSealInitReplicatesAndLeavesClocks: SealInit replicates processor
// 0's image to every node without a fault, a message or a clock charge,
// and leaves a clock advanced before it as it stands (only a
// measurement window, apps.Episode, excludes initialization).
func TestSealInitReplicatesAndLeavesClocks(t *testing.T) {
	c := sim.NewCluster(sim.DefaultConfig(3))
	d := New(c, 1024, 1<<20)
	addr := d.Alloc(8)
	d.Node(0).Space().WriteF64(addr, 9.5)
	c.Proc(1).Advance(50)
	d.SealInit()
	for i := 0; i < 3; i++ {
		if got := d.Node(i).Space().ReadF64(addr); got != 9.5 {
			t.Fatalf("node %d initial image = %v", i, got)
		}
		if d.Node(i).Space().ReadFaults != 0 {
			t.Fatalf("node %d has residual faults", i)
		}
	}
	if m, _ := c.Stats.Totals(); m != 0 {
		t.Fatalf("SealInit sent %d messages", m)
	}
	if got := c.MaxTime(); got != 50 {
		t.Fatalf("makespan after SealInit = %v, want the 50us advanced before it", got)
	}
}

// setUpTearDown is one DSM episode's set-up at the given geometry: New,
// an image of the whole arena, SealInit, Close.
func setUpTearDown(nprocs, arenaBytes int) {
	d := New(sim.NewCluster(sim.DefaultConfig(nprocs)), 4096, arenaBytes)
	d.Alloc(arenaBytes)
	d.SealInit()
	d.Close()
}

func TestNewSealInitAllocsIndependentOfPages(t *testing.T) {
	// Set-up allocates per node (page table, maps), never
	// per page: the image is one slab and the replicas alias it.
	// Collection is paused while counting: after each GC cycle the
	// runtime allocates a few objects of its own (the unique package's
	// map cleanup), and the 1024-page arenas trigger cycles the 4-page
	// ones do not.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const np = 8
	allocs := func(pages int) float64 {
		return testing.AllocsPerRun(5, func() { setUpTearDown(np, pages*4096) })
	}
	small, large := allocs(4), allocs(1024)
	if large > small {
		t.Fatalf("set-up allocations grow with the arena: %v at 4 pages, %v at 1024", small, large)
	}
	if small > 64*np {
		t.Fatalf("set-up makes %v allocations for %d nodes", small, np)
	}
}

// BenchmarkNewSealInit is the per-episode set-up cost at paper scale:
// 16 address spaces over an 8 MB image (perf's tmk.new_seal_ms probe).
func BenchmarkNewSealInit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setUpTearDown(16, 8<<20)
	}
}

// BenchmarkNewFromImage is the per-episode set-up cost of a TreadMarks
// variant attaching to its workload's sealed image: 16 address spaces
// over an 8 MB image built once.
func BenchmarkNewFromImage(b *testing.B) {
	img := NewImage(4096, 8<<20)
	img.Alloc(8 << 20)
	img.Seal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewFromImage(sim.NewCluster(sim.DefaultConfig(16)), img).Close()
	}
}

func TestVCBasics(t *testing.T) {
	a := VC{1, 2, 3}
	b := VC{2, 2, 3}
	if !a.LEq(b) || b.LEq(a) {
		t.Fatal("LEq wrong")
	}
	x := VC{1, 0}
	y := VC{0, 1}
	if x.LEq(y) || y.LEq(x) {
		t.Fatal("concurrent clocks reported ordered")
	}
	j := x.Clone()
	j.Join(y)
	if j[0] != 1 || j[1] != 1 {
		t.Fatalf("join = %v", j)
	}
	if a.Sum() != 6 {
		t.Fatalf("sum = %d", a.Sum())
	}
}

func TestNoticeWireBytes(t *testing.T) {
	nt := testNotice(1, 2, NewVC(4), []vm.PageID{1, 2, 3})
	if nt.WireBytes() != 8+16+12 {
		t.Fatalf("WireBytes = %d", nt.WireBytes())
	}
}

func TestLockContentionDeterministicTimes(t *testing.T) {
	// Heavy lock contention was the classic wobble source: grant order
	// used to follow real-time queue arrival. The deterministic arbiter
	// orders grants by (simulated request time, proc), so the full grant
	// chain — and the final simulated times — must be bit-identical, with
	// no tolerance band.
	run := func() (float64, int64, int64) {
		const np = 6
		d, addr := harness(t, np, 8)
		d.cluster.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			for i := 0; i < 4; i++ {
				n.AcquireLock(2)
				v := n.Space().ReadF64(addr)
				n.Space().WriteF64(addr, v+1)
				n.ReleaseLock(2)
			}
			n.Barrier(1)
		})
		m, b := d.cluster.Stats.Totals()
		return d.cluster.MaxTime(), m, b
	}
	t1, m1, b1 := run()
	for i := 0; i < 4; i++ {
		t2, m2, b2 := run()
		if t1 != t2 || m1 != m2 || b1 != b2 {
			t.Fatalf("lock contention nondeterministic: (%v,%d,%d) vs (%v,%d,%d)",
				t1, m1, b1, t2, m2, b2)
		}
	}
}

func TestDeterministicSimTimes(t *testing.T) {
	// The same program must produce identical simulated times and
	// traffic across runs.
	run := func() (float64, int64, int64) {
		d, addr := harness(t, 4, 512)
		d.cluster.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			for it := 0; it < 4; it++ {
				n.Space().WriteF64(addr+vm.Addr(8*(p.ID()*17+it)), float64(it))
				n.Barrier(it)
				_ = n.Space().ReadF64(addr + vm.Addr(8*((p.ID()+1)%4*17)))
				n.Barrier(100 + it)
			}
		})
		m, b := d.cluster.Stats.Totals()
		return d.cluster.MaxTime(), m, b
	}
	t1, m1, b1 := run()
	for i := 0; i < 3; i++ {
		t2, m2, b2 := run()
		if t1 != t2 || m1 != m2 || b1 != b2 {
			t.Fatalf("nondeterministic: (%v,%d,%d) vs (%v,%d,%d)", t1, m1, b1, t2, m2, b2)
		}
	}
}
