package chaos

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLookupLocalAgreesWithBatch(t *testing.T) {
	part := Block(2000, 4)
	tt := NewTransTable(part, Distributed)
	c := sim.NewCluster(sim.DefaultConfig(4))
	globals := []int{0, 1999, 777, 1234}
	batch := tt.LookupBatch(c.Proc(2), globals)
	local := tt.LookupLocal(globals)
	for i := range batch {
		if batch[i] != local[i] {
			t.Fatalf("lookup %d disagrees: %+v vs %+v", i, batch[i], local[i])
		}
	}
	// LookupLocal must be free.
	before, _ := c.Stats.Totals()
	tt.LookupLocal(globals)
	after, _ := c.Stats.Totals()
	if after != before {
		t.Fatal("LookupLocal communicated")
	}
}

func TestPagedTableCachesPerProcessor(t *testing.T) {
	part := Block(8192, 4)
	tt := NewTransTable(part, Paged)
	c := sim.NewCluster(sim.DefaultConfig(4))
	remote := []int{5000, 5001, 5002} // same table page, owned elsewhere
	tt.LookupBatch(c.Proc(0), remote)
	m1, _ := c.Stats.Totals()
	// A different processor's first access must still communicate (the
	// cache is per processor).
	tt.LookupBatch(c.Proc(1), remote)
	m2, _ := c.Stats.Totals()
	if m2 == m1 {
		t.Fatal("paged cache wrongly shared across processors")
	}
	// Proc 0 again: warm.
	tt.LookupBatch(c.Proc(0), remote)
	m3, _ := c.Stats.Totals()
	if m3 != m2 {
		t.Fatal("paged cache not warm on second access")
	}
}

func TestTranslateAllChargesReferenceStream(t *testing.T) {
	part := Block(4096, 4)
	globals := make([]int, 3000)
	for i := range globals {
		globals[i] = (i * 7) % 256 // heavy duplication: dedup pays off
	}
	run := func(all bool) int64 {
		c := sim.NewCluster(sim.DefaultConfig(4))
		tt := NewTransTable(part, Distributed)
		cost := DefaultInspectorCost()
		cost.TranslateAll = all
		c.Run(func(p *sim.Proc) {
			Inspect(p, 0, globals, tt, cost)
		})
		_, bytes := c.Stats.Totals()
		return bytes
	}
	dedup := run(false)
	full := run(true)
	if full <= dedup {
		t.Fatalf("TranslateAll bytes (%d) not above deduped (%d)", full, dedup)
	}
}

func TestRemapRoundTripProperty(t *testing.T) {
	// (owner, local) pairs are unique and dense per owner.
	f := func(seed uint8, npRaw uint8) bool {
		np := int(npRaw)%6 + 1
		n := 100
		owner := make([]int, n)
		for i := range owner {
			owner[i] = (i*int(seed+1) + i/7) % np
		}
		part := &Partition{Owner: owner, NProcs: np}
		local, counts := Remap(part)
		seen := map[[2]int32]bool{}
		for g := 0; g < n; g++ {
			k := [2]int32{int32(owner[g]), local[g]}
			if seen[k] {
				return false
			}
			seen[k] = true
			if int(local[g]) >= counts[owner[g]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
