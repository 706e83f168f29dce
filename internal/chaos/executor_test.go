package chaos

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestExecutorBufferReuse: payloads travel with the messages and come
// back as send buffers, sometimes too small (a width-1 payload kept for
// a width-3 send), sometimes larger than needed (resliced). Whatever
// buffer a message goes out in, every ghost after a Gather and every
// owned element after a ScatterAdd must equal a plain serial
// computation. Partitions and access lists are uneven: owners skew
// toward low processor ids and the last processor accesses nothing, so
// it only sends gathers and only receives scatters.
func TestExecutorBufferReuse(t *testing.T) {
	// Each round runs the two widths' gather/scatter pairs in one of
	// these orders; a width's gather always precedes its scatter.
	type op struct {
		scatter bool
		width   int
	}
	orders := [][]op{
		{{false, 1}, {true, 1}, {false, 3}, {true, 3}},
		{{false, 3}, {false, 1}, {true, 3}, {true, 1}},
		{{false, 1}, {false, 3}, {true, 3}, {true, 1}},
	}
	const rounds = 6
	// Exact small integers, so sums are order-free.
	val := func(r, g, c int) float64 { return float64(1000*r + 10*g + c) }
	contrib := func(r, q, g, c int) float64 { return float64(r + 3*q + g%7 + c) }

	for np := 2; np <= 8; np++ {
		rng := rand.New(rand.NewSource(int64(np)))
		n := 30*np + rng.Intn(40)
		owner := make([]int, n)
		for g := range owner {
			owner[g] = min(rng.Intn(np), rng.Intn(np))
		}
		part := &Partition{Owner: owner, NProcs: np}
		access := make([][]int, np)
		holders := make([][]int, n) // non-owners accessing g, serially
		for q := 0; q < np-1; q++ {
			k := 1 + rng.Intn(4*n/np)
			seen := make([]bool, n)
			for i := 0; i < k; i++ {
				g := rng.Intn(n)
				access[q] = append(access[q], g)
				if owner[g] != q && !seen[g] {
					seen[g] = true
					holders[g] = append(holders[g], q)
				}
			}
		}
		owned := part.Owned()
		tt := NewTransTable(part, Replicated)
		c := sim.NewCluster(sim.DefaultConfig(np))
		c.Run(func(p *sim.Proc) {
			me := p.ID()
			sch := Inspect(p, 0, access[me], tt, DefaultInspectorCost())
			data := map[int][]float64{}
			for _, w := range []int{1, 3} {
				data[w] = make([]float64, w*(len(owned[me])+sch.Ghosts))
			}
			// A processor reports its first mismatch only, and keeps
			// joining the collectives: returning early would leave its
			// peers waiting for messages that never come.
			failed := false
			check := func(what string, r, g, w int, want func(c int) float64) {
				for cc := 0; cc < w && !failed; cc++ {
					if got := data[w][int(sch.LocalOf(g))*w+cc]; got != want(cc) {
						t.Errorf("%d procs, proc %d, round %d, %s width %d: global %d[%d] = %v, want %v",
							np, me, r, what, w, g, cc, got, want(cc))
						failed = true
					}
				}
			}
			tag := 1
			for r := 0; r < rounds; r++ {
				for _, o := range orders[r%len(orders)] {
					w, d := o.width, data[o.width]
					tag++
					if !o.scatter {
						for _, g := range owned[me] {
							for cc := 0; cc < w; cc++ {
								d[int(sch.LocalOf(g))*w+cc] = val(r, g, cc)
							}
						}
						Gather(p, tag, sch, d, w, DefaultExecutorCost())
						for _, gs := range [][]int{owned[me], access[me]} {
							for _, g := range gs {
								check("gather", r, g, w, func(cc int) float64 { return val(r, g, cc) })
							}
						}
						continue
					}
					for _, g := range access[me] {
						if owner[g] != me {
							for cc := 0; cc < w; cc++ {
								d[int(sch.LocalOf(g))*w+cc] = contrib(r, me, g, cc)
							}
						}
					}
					ScatterAdd(p, tag, sch, d, w, DefaultExecutorCost())
					for _, g := range owned[me] {
						want := func(cc int) float64 {
							s := val(r, g, cc)
							for _, q := range holders[g] {
								s += contrib(r, q, g, cc)
							}
							return s
						}
						check("scatter", r, g, w, want)
					}
					for _, g := range access[me] {
						if owner[g] != me {
							check("scatter (ghost kept)", r, g, w, func(cc int) float64 { return contrib(r, me, g, cc) })
						}
					}
				}
			}
		})
	}
}

// executorRounds runs rounds Gather+ScatterAdd rounds of width values
// per element over a block partition of n elements: every processor
// reads its own block, the next half-block and the block half the array
// away, so it exchanges with two or three peers.
func executorRounds(n, nprocs, width, rounds int) {
	part := Block(n, nprocs)
	tt := NewTransTable(part, Replicated)
	c := sim.NewCluster(sim.DefaultConfig(nprocs))
	counts := part.Counts()
	c.Run(func(p *sim.Proc) {
		me := p.ID()
		lo, hi := BlockRange(n, nprocs, me)
		acc := make([]int, 0, 3*(hi-lo))
		for g := lo; g < hi; g++ {
			acc = append(acc, g, (g+n/(2*nprocs))%n, (g+n/2)%n)
		}
		sch := Inspect(p, 0, acc, tt, DefaultInspectorCost())
		data := make([]float64, width*(counts[me]+sch.Ghosts))
		for r := 1; r <= rounds; r++ {
			Gather(p, 2*r, sch, data, width, DefaultExecutorCost())
			ScatterAdd(p, 2*r+1, sch, data, width, DefaultExecutorCost())
		}
		sch.ReleaseMem(p)
	})
}

// marginalBytes is the host bytes allocated by one more round of run
// between from and to rounds: set-up, the inspector and the first
// rounds' buffers cancel out. Each side is the minimum of three runs.
func marginalBytes(run func(rounds int), from, to int) float64 {
	measure := func(rounds int) uint64 {
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			run(rounds)
			runtime.ReadMemStats(&b)
			best = min(best, b.TotalAlloc-a.TotalAlloc)
		}
		return best
	}
	return (float64(measure(to)) - float64(measure(from))) / float64(to-from)
}

// TestExecutorSteadyStateAllocs: past the first round, an executor
// round allocates nothing that grows with the payload — every message
// goes out in the buffer its peer's last message came in. At 10,000
// elements a round moves about 190 KB of payload; the bounds allow for
// the simulator's per-message bookkeeping, which does not depend on
// the payload (16 allocations, under 400 bytes, per round).
func TestExecutorSteadyStateAllocs(t *testing.T) {
	const nprocs, width = 4, 3
	allocs, bytes := map[int]float64{}, map[int]float64{}
	for _, n := range []int{100, 10000} {
		run := func(rounds int) { executorRounds(n, nprocs, width, rounds) }
		allocs[n] = marginalAllocs(run, 10, 50)
		bytes[n] = marginalBytes(run, 10, 50)
		t.Logf("n=%5d: %.2f allocs, %.0f bytes per round", n, allocs[n], bytes[n])
	}
	if allocs[10000] > allocs[100]+1 {
		t.Errorf("a round allocates %.2f times at 10,000 elements and %.2f at 100", allocs[10000], allocs[100])
	}
	if bytes[10000] > bytes[100]+512 {
		t.Errorf("a round allocates %.0f bytes at 10,000 elements and %.0f at 100: payload buffers are not reused",
			bytes[10000], bytes[100])
	}
}

// marginalAllocs is the host allocation count of one more round of run
// between from and to rounds.
func marginalAllocs(run func(rounds int), from, to int) float64 {
	lo := testing.AllocsPerRun(2, func() { run(from) })
	hi := testing.AllocsPerRun(2, func() { run(to) })
	return (hi - lo) / float64(to-from)
}

// BenchmarkGatherScatter is one executor round (Gather then ScatterAdd,
// width 3) at 8 processors over 16,384 elements.
func BenchmarkGatherScatter(b *testing.B) {
	b.ReportAllocs()
	executorRounds(16384, 8, 3, b.N)
}

// BenchmarkInspect is one collective inspector run at moldyn's
// irregular_tables size: 512 molecules on 8 processors, each processor
// streaming 6,500 interaction pairs (13,000 references) in place through
// the distributed table before duplicate elimination (TranslateAll), as
// moldyn does.
func BenchmarkInspect(b *testing.B) {
	const n, nprocs, npairs = 512, 8, 6500
	part := Block(n, nprocs)
	tt := NewTransTable(part, Distributed)
	cost := InspectorCost{HashUSPerEntry: 2.0, BuildUSPerElem: 0.5, TranslateAll: true}
	pairs := make([][][2]int32, nprocs)
	rng := rand.New(rand.NewSource(1))
	for q := range pairs {
		pairs[q] = make([][2]int32, npairs)
		for i := range pairs[q] {
			pairs[q][i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
	}
	c := sim.NewCluster(sim.DefaultConfig(nprocs))
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			InspectStream(p, i, pairStream(pairs[p.ID()]), tt, cost).ReleaseMem(p)
		}
	})
}
