package chaos

import (
	"fmt"
	"iter"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// pairStream yields both endpoints of every pair, in list order, reading
// the list in place — the shape of the apps' interaction and edge
// streams.
func pairStream(pairs [][2]int32) iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, pr := range pairs {
			if !yield(int(pr[0])) || !yield(int(pr[1])) {
				return
			}
		}
	}
}

// inspectOutcome is everything a collective inspector run leaves
// observable: the schedules, the processor clocks, the traffic by
// category, and the memory ledger (current and peak bytes per category
// and processor).
type inspectOutcome struct {
	Scheds  []schedView
	Clocks  []float64
	Traffic map[string]sim.CatStat
	Mem     map[sim.MemKey]sim.MemStat
}

type schedView struct {
	OwnCount, Ghosts           int
	RecvFrom, RecvSlot, SendTo [][]int32
	LocalOf                    []int32
}

// runInspect runs one collective inspector over pairs[p] on every
// processor, through the stream when stream is set and through a
// materialized reference list otherwise.
func runInspect(t *testing.T, n, nprocs int, kind TableKind, cachePages int, translateAll, stream bool, pairs [][][2]int32) inspectOutcome {
	t.Helper()
	part := Block(n, nprocs)
	tt := NewTransTable(part, kind)
	tt.CachePages = cachePages
	cost := InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: translateAll}
	c := sim.NewCluster(sim.DefaultConfig(nprocs))
	scheds := make([]*Schedule, nprocs)
	c.Run(func(p *sim.Proc) {
		prs := pairs[p.ID()]
		if stream {
			scheds[p.ID()] = InspectStream(p, 0, pairStream(prs), tt, cost)
			return
		}
		globals := make([]int, 0, 2*len(prs))
		for _, pr := range prs {
			globals = append(globals, int(pr[0]), int(pr[1]))
		}
		scheds[p.ID()] = Inspect(p, 0, globals, tt, cost)
	})
	out := inspectOutcome{Traffic: c.Stats.Categories(), Mem: c.Mem.Snapshot()}
	for q, s := range scheds {
		for r := range s.RecvFrom {
			if len(s.RecvFrom[r]) != cap(s.RecvFrom[r]) || len(s.RecvSlot[r]) != cap(s.RecvSlot[r]) {
				t.Errorf("proc %d: receive lists from %d have len %d/%d, cap %d/%d", q, r,
					len(s.RecvFrom[r]), len(s.RecvSlot[r]), cap(s.RecvFrom[r]), cap(s.RecvSlot[r]))
			}
		}
		v := schedView{OwnCount: s.OwnCount, Ghosts: s.Ghosts,
			RecvFrom: s.RecvFrom, RecvSlot: s.RecvSlot, SendTo: s.SendTo}
		for g := 0; g < n; g++ {
			v.LocalOf = append(v.LocalOf, s.LocalOf(g))
		}
		out.Scheds = append(out.Scheds, v)
		out.Clocks = append(out.Clocks, c.Proc(q).Clock())
	}
	return out
}

// TestInspectStreamMatchesSlice pins that walking the reference stream
// in place builds exactly what the materialized list does — schedules,
// clocks, table and schedule traffic, ledger peaks — under every table
// organization, including a bounded Paged cache, where the order of the
// lookups decides the evictions.
func TestInspectStreamMatchesSlice(t *testing.T) {
	const n = 5000
	tables := []struct {
		kind  TableKind
		cache int
	}{{Replicated, 0}, {Distributed, 0}, {Paged, 2}}
	for _, tb := range tables {
		for _, translateAll := range []bool{false, true} {
			for nprocs := 2; nprocs <= 8; nprocs += 3 {
				name := fmt.Sprintf("%v-cache%d-translateAll=%v-procs%d", tb.kind, tb.cache, translateAll, nprocs)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(nprocs)))
					pairs := make([][][2]int32, nprocs)
					for p := range pairs {
						if p == 1 {
							continue // a processor with no references at all
						}
						lo, hi := BlockRange(n, nprocs, p)
						for k := 0; k < 3000; k++ {
							i := lo + rng.Intn(hi-lo)
							pairs[p] = append(pairs[p], [2]int32{int32(i), int32(rng.Intn(n))})
						}
					}
					want := runInspect(t, n, nprocs, tb.kind, tb.cache, translateAll, false, pairs)
					got := runInspect(t, n, nprocs, tb.kind, tb.cache, translateAll, true, pairs)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("stream and slice inspectors differ:\nstream: clocks %v traffic %v\nslice:  clocks %v traffic %v",
							got.Clocks, got.Traffic, want.Clocks, want.Traffic)
					}
					if tb.kind != Replicated && want.Traffic["chaos.ttable"].Messages == 0 {
						t.Fatal("no table traffic: the case does not exercise lookup order")
					}
				})
			}
		}
	}
}
