package tmk

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/diff"
	"repro/internal/sim"
	"repro/internal/vm"
)

// intervalKey names one closed interval of one writer.
type intervalKey struct {
	proc     int
	interval int32
}

// wrote is what a writer did to one page in one interval, as the test
// counts it: the lengths of the stretches it inverted, or a whole-page
// write.
type wrote struct {
	stretches []int
	full      bool
}

// TestWirePrices runs seeded intervals that mix twinned diffs and
// WRITE_ALL snapshots and checks every simulated size of consistency
// data against counts the test takes from its own writes: each shipped
// diff costs 16 + 4·procs + Σ(WireHeaderB + run length), or
// WireHeaderB + the page size for a snapshot, each diff response the
// sum of its diffs, and each posted notice 8 + 4·procs + 4·pages +
// 4·full pages.
//
// A twinned write inverts every bit of whole words in stretches that
// are at least one word (minGap bytes) apart, so each stretch is
// exactly one run whatever the page held.
func TestWirePrices(t *testing.T) {
	const pageSize, rounds = 4096, 6
	const words = pageSize / 8
	for _, nprocs := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("procs%d", nprocs), func(t *testing.T) {
			npages := 2 * nprocs
			cl := sim.NewCluster(sim.DefaultConfig(nprocs))
			d := New(cl, pageSize, npages*pageSize)
			base := d.Alloc(npages * pageSize)
			d.SealInit()
			addr := func(page, word int) vm.Addr { return base + vm.Addr(page*pageSize+8*word) }
			pageID := func(page int) vm.PageID { return d.img.arena.PageOf(addr(page, 0)) }

			// expect[p] records writer p's intervals; shipped[p] and
			// respBytes[p] the diffs processor p received and the sizes
			// their responses were priced at. The diff handler runs on
			// the requester's goroutine.
			expect := make([]map[intervalKey]map[vm.PageID]wrote, nprocs)
			shipped := make([][]*storedDiff, nprocs)
			respBytes := make([][]int, nprocs)
			for i := 0; i < nprocs; i++ {
				n := d.Node(i)
				n.proc.RegisterHandler(msgDiff, func(from int, req any) (any, int, float64) {
					r := req.(*diffRequest)
					first := len(*r.resp)
					resp, bytes, us := n.handleDiffRequest(from, req)
					shipped[from] = append(shipped[from], (*r.resp)[first:]...)
					respBytes[from] = append(respBytes[from], bytes)
					return resp, bytes, us
				})
			}

			cl.Run(func(p *sim.Proc) {
				me := p.ID()
				n := d.Node(me)
				s := n.Space()
				rng := rand.New(rand.NewSource(int64(100*nprocs + me)))
				expect[me] = map[intervalKey]map[vm.PageID]wrote{}
				for r := 0; r < rounds; r++ {
					// This round, me owns the pages congruent to me+r and
					// writes each of them in one of three ways; it always
					// writes the first, so every round closes an interval.
					cur := map[vm.PageID]wrote{}
					for pg := (me + r) % nprocs; pg < npages; pg += nprocs {
						switch k := rng.Intn(3); {
						case k == 0 && len(cur) > 0:
						case k == 1:
							n.MarkFullyWritten(pageID(pg))
							for w := 0; w < words; w++ {
								s.WriteI64(addr(pg, w), int64(me*words+w+r))
							}
							cur[pageID(pg)] = wrote{full: true}
						default:
							var st []int
							for w := rng.Intn(4); w < words; {
								size := min(1+rng.Intn(4), words-w)
								for k := w; k < w+size; k++ {
									s.WriteI64(addr(pg, k), ^s.ReadI64(addr(pg, k)))
								}
								st = append(st, 8*size)
								w += size + 1 + rng.Intn(40)
							}
							cur[pageID(pg)] = wrote{stretches: st}
						}
					}
					n.Barrier(1)
					expect[me][intervalKey{me, n.vc[me]}] = cur
					// Everyone reads every page, fetching the diffs it lacks.
					for pg := 0; pg < npages; pg++ {
						s.ReadI64(addr(pg, 0))
					}
				}
			})

			all := map[intervalKey]map[vm.PageID]wrote{}
			for _, e := range expect {
				for k, v := range e {
					all[k] = v
				}
			}
			price := func(sd *storedDiff) int {
				w, ok := all[intervalKey{sd.nt.Proc, sd.nt.Interval}][sd.page]
				if !ok {
					t.Fatalf("diff of page %d from processor %d interval %d was never written", sd.page, sd.nt.Proc, sd.nt.Interval)
				}
				if sd.full != w.full {
					t.Fatalf("page %d, processor %d interval %d: full = %v, written whole = %v", sd.page, sd.nt.Proc, sd.nt.Interval, sd.full, w.full)
				}
				want := 16 + 4*nprocs
				if w.full {
					return want + diff.WireHeaderB + pageSize
				}
				for _, size := range w.stretches {
					want += diff.WireHeaderB + size
				}
				return want
			}
			var diffs, fulls int
			for p := range shipped {
				total := 0
				for _, sd := range shipped[p] {
					if got, want := sd.wireBytes(), price(sd); got != want {
						t.Errorf("processor %d received page %d of processor %d interval %d at %d bytes, want %d",
							p, sd.page, sd.nt.Proc, sd.nt.Interval, got, want)
					}
					total += price(sd)
					diffs++
					if sd.full {
						fulls++
					}
				}
				sum := 0
				for _, b := range respBytes[p] {
					sum += b
				}
				if sum != total {
					t.Errorf("processor %d's diff responses were priced at %d bytes, their diffs at %d", p, sum, total)
				}
			}
			if diffs == 0 || fulls == 0 || fulls == diffs {
				t.Fatalf("%d diffs shipped, %d of them snapshots: want both kinds", diffs, fulls)
			}

			notices := 0
			for w, nts := range d.board.byWriter {
				for _, nt := range nts {
					pages, ok := all[intervalKey{w, nt.Interval}]
					if !ok {
						t.Fatalf("notice of processor %d interval %d was never written", w, nt.Interval)
					}
					full := 0
					for _, wr := range pages {
						if wr.full {
							full++
						}
					}
					if got, want := nt.WireBytes(), 8+4*nprocs+4*len(pages)+4*full; got != want {
						t.Errorf("notice of processor %d interval %d: %d wire bytes, want %d", w, nt.Interval, got, want)
					}
					notices++
				}
			}
			if notices != nprocs*rounds {
				t.Errorf("%d notices posted, want %d", notices, nprocs*rounds)
			}
			d.Close()
		})
	}
}
