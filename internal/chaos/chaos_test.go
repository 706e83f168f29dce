package chaos

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBlockPartitionCoversAndBalances(t *testing.T) {
	p := Block(100, 8)
	c := p.Counts()
	total := 0
	for _, n := range c {
		total += n
	}
	if total != 100 {
		t.Fatalf("coverage: %d", total)
	}
	for i, n := range c {
		if n > 13 {
			t.Fatalf("proc %d has %d elements", i, n)
		}
	}
	// Contiguity.
	for g := 1; g < 100; g++ {
		if p.Owner[g] < p.Owner[g-1] {
			t.Fatal("block owners not monotone")
		}
	}
}

func TestBlockRangeMatchesOwner(t *testing.T) {
	f := func(nRaw, npRaw uint8) bool {
		n := int(nRaw)%500 + 1
		np := int(npRaw)%8 + 1
		p := Block(n, np)
		for pr := 0; pr < np; pr++ {
			lo, hi := BlockRange(n, np, pr)
			for g := lo; g < hi; g++ {
				if p.Owner[g] != pr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRCBBalanceAndLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4096
	coords := make([][3]float64, n)
	for i := range coords {
		coords[i] = [3]float64{rng.Float64() * 64, rng.Float64() * 64, rng.Float64() * 64}
	}
	p := RCB(coords, 8)
	counts := p.Counts()
	for pr, c := range counts {
		if c < n/8-64 || c > n/8+64 {
			t.Fatalf("proc %d owns %d of %d (imbalanced)", pr, c, n)
		}
	}
	// Locality: nearby points should mostly share an owner. Compare the
	// average intra-owner distance against the global average.
	intra, intraN := 0.0, 0
	global, globalN := 0.0, 0
	for k := 0; k < 20000; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		d := 0.0
		for dim := 0; dim < 3; dim++ {
			dd := coords[a][dim] - coords[b][dim]
			d += dd * dd
		}
		global += d
		globalN++
		if p.Owner[a] == p.Owner[b] {
			intra += d
			intraN++
		}
	}
	if intra/float64(intraN) >= global/float64(globalN) {
		t.Fatal("RCB shows no spatial locality")
	}
}

func TestRCBDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coords := make([][3]float64, 500)
	for i := range coords {
		coords[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	p1 := RCB(coords, 4)
	p2 := RCB(coords, 4)
	for g := range p1.Owner {
		if p1.Owner[g] != p2.Owner[g] {
			t.Fatal("RCB not deterministic")
		}
	}
}

// rcbStableReference is RCB with each split ordered by a stable sort on
// the coordinate alone, ties left in the incoming (ascending id) order:
// the owners RCB's (coordinate, id) order must reproduce.
func rcbStableReference(coords [][3]float64, nprocs int) []int {
	owner := make([]int, len(coords))
	var split func(ids []int, base, count int)
	split = func(ids []int, base, count int) {
		if count == 1 || len(ids) == 0 {
			for _, id := range ids {
				owner[id] = base
			}
			return
		}
		lo, hi := coords[ids[0]], coords[ids[0]]
		for _, id := range ids {
			for d := 0; d < 3; d++ {
				lo[d] = min(lo[d], coords[id][d])
				hi[d] = max(hi[d], coords[id][d])
			}
		}
		dim := 0
		for d := 1; d < 3; d++ {
			if hi[d]-lo[d] > hi[dim]-lo[dim] {
				dim = d
			}
		}
		slices.Sort(ids)
		sort.SliceStable(ids, func(a, b int) bool { return coords[ids[a]][dim] < coords[ids[b]][dim] })
		left := count / 2
		cut := len(ids) * left / count
		split(ids[:cut], base, left)
		split(ids[cut:], base+left, count-left)
	}
	ids := make([]int, len(coords))
	for i := range ids {
		ids[i] = i
	}
	split(ids, 0, nprocs)
	return owner
}

func TestRCBMatchesStableSortReference(t *testing.T) {
	// Coordinates on a coarse lattice, so most splits cut through runs of
	// equal coordinates and the id tie-break decides who goes where.
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		coords := make([][3]float64, n)
		for i := range coords {
			coords[i] = [3]float64{float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(5))}
		}
		for _, procs := range []int{2, 3, 7, 16} {
			if got, want := RCB(coords, procs).Owner, rcbStableReference(coords, procs); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d procs: RCB owners differ from the stable-sort reference", seed, procs)
			}
		}
	}
}

func TestRCBNonPowerOfTwoProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	coords := make([][3]float64, 999)
	for i := range coords {
		coords[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	p := RCB(coords, 3)
	counts := p.Counts()
	for pr, c := range counts {
		if c < 999/3-40 || c > 999/3+40 {
			t.Fatalf("proc %d owns %d", pr, c)
		}
	}
}

func TestRemapOffsetsAreDenseAndOrdered(t *testing.T) {
	part := &Partition{Owner: []int{1, 0, 1, 0, 1}, NProcs: 2}
	local, counts := Remap(part)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	// Element 1 and 3 are proc 0's, in global order -> offsets 0, 1.
	if local[1] != 0 || local[3] != 1 {
		t.Fatalf("proc0 offsets: %v", local)
	}
	if local[0] != 0 || local[2] != 1 || local[4] != 2 {
		t.Fatalf("proc1 offsets: %v", local)
	}
}

func TestTransTableKindsAgree(t *testing.T) {
	// All organizations must return identical translations; only the
	// charged traffic differs.
	part := Block(1000, 4)
	c := sim.NewCluster(sim.DefaultConfig(4))
	globals := []int{0, 999, 500, 250, 750, 3}
	var ref []Loc
	for _, kind := range []TableKind{Replicated, Distributed, Paged} {
		tt := NewTransTable(part, kind)
		got := tt.LookupBatch(c.Proc(1), globals)
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%v: lookup %d = %+v, want %+v", kind, i, got[i], ref[i])
			}
		}
	}
}

func TestTransTableTrafficByKind(t *testing.T) {
	part := Block(8192, 4)
	globals := make([]int, 2000)
	rng := rand.New(rand.NewSource(11))
	for i := range globals {
		globals[i] = rng.Intn(8192)
	}
	traffic := func(kind TableKind) int64 {
		c := sim.NewCluster(sim.DefaultConfig(4))
		tt := NewTransTable(part, kind)
		tt.LookupBatch(c.Proc(0), globals)
		m, _ := c.Stats.Totals()
		return m
	}
	if m := traffic(Replicated); m != 0 {
		t.Errorf("replicated table communicated: %d msgs", m)
	}
	if m := traffic(Distributed); m == 0 {
		t.Error("distributed table did not communicate")
	}
	// Paged: second lookup of the same pages is free.
	c := sim.NewCluster(sim.DefaultConfig(4))
	tt := NewTransTable(part, Paged)
	tt.LookupBatch(c.Proc(0), globals)
	m1, _ := c.Stats.Totals()
	tt.LookupBatch(c.Proc(0), globals)
	m2, _ := c.Stats.Totals()
	if m1 == 0 {
		t.Error("paged table cold lookups free")
	}
	if m2 != m1 {
		t.Errorf("paged table re-communicated on warm lookups: %d -> %d", m1, m2)
	}
}

// inspectorWorld runs a collective Inspect over a block partition where
// each processor accesses its own block plus some remote elements.
func inspectorWorld(t *testing.T, n, nprocs int, access func(me int) []int) ([]*Schedule, *sim.Cluster) {
	t.Helper()
	part := Block(n, nprocs)
	tt := NewTransTable(part, Replicated)
	c := sim.NewCluster(sim.DefaultConfig(nprocs))
	scheds := make([]*Schedule, nprocs)
	c.Run(func(p *sim.Proc) {
		scheds[p.ID()] = Inspect(p, 0, access(p.ID()), tt, DefaultInspectorCost())
	})
	return scheds, c
}

func TestInspectorBuildsConsistentSchedules(t *testing.T) {
	const n, np = 64, 4
	scheds, _ := inspectorWorld(t, n, np, func(me int) []int {
		lo, hi := BlockRange(n, np, me)
		var g []int
		for i := lo; i < hi; i++ {
			g = append(g, i, (i+n/2)%n) // own + opposite block
		}
		return g
	})
	for me, sch := range scheds {
		for q, wants := range sch.RecvFrom {
			// What me receives from q must equal what q sends to me.
			peer := scheds[q].SendTo[me]
			if len(wants) != len(peer) {
				t.Fatalf("proc %d <- %d: recv %d != send %d", me, q, len(wants), len(peer))
			}
			for i := range wants {
				if wants[i] != peer[i] {
					t.Fatalf("proc %d <- %d: schedule mismatch at %d", me, q, i)
				}
			}
		}
	}
}

func TestInspectorDedup(t *testing.T) {
	// Accessing the same remote element many times must create one ghost.
	const n, np = 64, 2
	scheds, _ := inspectorWorld(t, n, np, func(me int) []int {
		if me == 0 {
			return []int{40, 40, 40, 40, 40, 0, 1}
		}
		return []int{40, 41}
	})
	if scheds[0].Ghosts != 1 {
		t.Fatalf("proc 0 ghosts = %d, want 1 (dedup)", scheds[0].Ghosts)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	const n, np = 64, 4
	part := Block(n, np)
	tt := NewTransTable(part, Replicated)
	c := sim.NewCluster(sim.DefaultConfig(np))
	// Global data: element g has value 100+g. Each proc accesses its
	// block plus a shifted window; after gather every accessed slot must
	// hold the right value; after scatter-add of "1 per ghost access"
	// owners see the right totals.
	counts := part.Counts()
	addend := make([]float64, n) // expected scatter contributions per global
	c.Run(func(p *sim.Proc) {
		me := p.ID()
		lo, hi := BlockRange(n, np, me)
		var acc []int
		for i := lo; i < hi; i++ {
			acc = append(acc, i, (i+13)%n)
		}
		sch := Inspect(p, 0, acc, tt, DefaultInspectorCost())
		data := make([]float64, counts[me]+sch.Ghosts)
		for g := 0; g < n; g++ {
			if part.Owner[g] == me {
				data[sch.LocalOf(g)] = 100 + float64(g)
			}
		}
		Gather(p, 1, sch, data, 1, DefaultExecutorCost())
		for _, g := range acc {
			if got := data[sch.LocalOf(g)]; got != 100+float64(g) {
				t.Errorf("proc %d: global %d = %v", me, g, got)
			}
		}
		// Scatter: each proc adds 1 to every accessed element (ghost or
		// owned); owners should see the sum of accesses.
		for i := range data {
			data[i] = 0
		}
		for _, g := range acc {
			data[sch.LocalOf(g)]++
		}
		ScatterAdd(p, 2, sch, data, 1, DefaultExecutorCost())
		// Verify own elements.
		for g := lo; g < hi; g++ {
			want := 1.0 // own access
			if (g-13+n)%n >= 0 {
				// was g accessed as (i+13)%n by some i? exactly once.
				want = 2.0
			}
			if got := data[sch.LocalOf(g)]; got != want {
				t.Errorf("proc %d: scatter global %d = %v, want %v", me, g, got, want)
			}
		}
	})
	_ = addend
}

func TestGatherUsesOneMessagePerPair(t *testing.T) {
	const n, np = 64, 4
	scheds, c := inspectorWorld(t, n, np, func(me int) []int {
		lo, hi := BlockRange(n, np, me)
		var g []int
		for i := lo; i < hi; i++ {
			g = append(g, i, (i+n/np)%n) // each proc needs the next block
		}
		return g
	})
	before := c.Stats.Categories()["chaos.gather"].Messages
	part := Block(n, np)
	counts := part.Counts()
	c.Run(func(p *sim.Proc) {
		sch := scheds[p.ID()]
		data := make([]float64, counts[p.ID()]+sch.Ghosts)
		Gather(p, 9, sch, data, 1, DefaultExecutorCost())
	})
	// Each proc receives from exactly one peer: np messages total.
	if got := c.Stats.Categories()["chaos.gather"].Messages - before; got != np {
		t.Fatalf("gather messages = %d, want %d", got, np)
	}
}

func TestTableKindString(t *testing.T) {
	if Replicated.String() != "replicated" || Distributed.String() != "distributed" || Paged.String() != "paged" {
		t.Fatal("TableKind strings")
	}
}
