package tmk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// reducePageSize and reduceBlockPages shape writeAllReduce: every
// processor's block of the shared array is two 4 KB pages.
const (
	reducePageSize   = 4096
	reduceBlockPages = 2
	reduceBlockWords = reduceBlockPages * reducePageSize / 8
)

// contribution is what processor w adds to word j of every block in
// round r: integral, so every partial sum is exact.
func contribution(w, r, j int) float64 { return float64((w+1)*(r+1)*1000 + j) }

// frozenSnapshot is one stored whole-page snapshot and the checksum of
// its bytes when its interval closed.
type frozenSnapshot struct {
	sd  *storedDiff
	sum uint32
}

// writeAllReduce runs rounds rounds of nbf's time step on two shared
// arrays of nprocs two-page blocks, F and X. First apps.PipelinedReduce's
// pattern on F: in stage s processor me adds its contribution into
// F-block (me+s) mod nprocs, overwriting it at s == 0 (WRITE_ALL) and
// reading then rewriting it later (READ&WRITE_ALL: fetch, then
// MarkFullyWritten), with a barrier after every stage. Then every
// processor overwrites its own X-block with its F-block (WRITE_ALL) and
// meets the others at a barrier, and X-block b is read by processor
// b+1 mod nprocs alone or, with allRead, by every other processor: pure
// readers, which never write it. Every snapshot an interval stores must
// hold what its writer wrote (checked at the interval's close, and
// against its checksum again before Close), and X the sum of the last
// round's contributions. It returns the run's clocks, traffic and
// ledger, and the host bytes allocated from New to Close.
func writeAllReduce(t *testing.T, nprocs, rounds int, allRead bool) (pins string, hostBytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	const blockBytes = reduceBlockPages * reducePageSize
	cl := sim.NewCluster(sim.DefaultConfig(nprocs))
	d := New(cl, reducePageSize, 2*nprocs*blockBytes)
	f := d.Alloc(nprocs * blockBytes)
	x := d.Alloc(nprocs * blockBytes)
	addr := func(arr vm.Addr, b, j int) vm.Addr { return arr + vm.Addr(8*(b*reduceBlockWords+j)) }
	page := func(arr vm.Addr, b, k int) vm.PageID { return d.img.arena.PageOf(addr(arr, b, k*reducePageSize/8)) }
	d.SealInit()
	frozen := make([][]frozenSnapshot, nprocs)
	errs := make([]error, nprocs)
	fail := func(me int, format string, args ...any) {
		if errs[me] == nil {
			errs[me] = fmt.Errorf(format, args...)
		}
	}

	cl.Run(func(p *sim.Proc) {
		me := p.ID()
		n := d.Node(me)
		s := n.Space()
		want := make([]byte, blockBytes)
		// writeBlock overwrites block b of arr with v(j), reading it
		// first when read is set, and checks the snapshots its
		// interval stores at the barrier.
		writeBlock := func(arr vm.Addr, b int, read bool, v func(j int) float64) {
			for k := 0; k < reduceBlockPages; k++ {
				if read {
					s.ReadF64(addr(arr, b, k*reducePageSize/8))
				}
				n.MarkFullyWritten(page(arr, b, k))
			}
			for j := 0; j < reduceBlockWords; j++ {
				w := v(j)
				s.WriteF64(addr(arr, b, j), w)
				binary.LittleEndian.PutUint64(want[8*j:], math.Float64bits(w))
			}
			n.Barrier(1)
			n.mu.Lock()
			defer n.mu.Unlock()
			for k := 0; k < reduceBlockPages; k++ {
				stored := n.diffStore[page(arr, b, k)]
				sd := stored[len(stored)-1]
				got := sd.data
				if !sd.full || sd.nt.Interval != n.vc[me] || string(got) != string(want[k*reducePageSize:(k+1)*reducePageSize]) {
					fail(me, "interval %d: the snapshot of page %d is not what processor %d wrote", n.vc[me], page(arr, b, k), me)
				}
				frozen[me] = append(frozen[me], frozenSnapshot{sd, crc32.ChecksumIEEE(got)})
			}
		}
		for r := 0; r < rounds; r++ {
			for st := 0; st < nprocs; st++ {
				b := (me + st) % nprocs
				writeBlock(f, b, st > 0, func(j int) float64 {
					v := contribution(me, r, j)
					if st > 0 {
						v += s.ReadF64(addr(f, b, j))
					}
					return v
				})
			}
			writeBlock(x, me, false, func(j int) float64 { return s.ReadF64(addr(f, me, j)) })
			for b := 0; b < nprocs; b++ {
				if b == me || !allRead && me != (b+1)%nprocs {
					continue
				}
				for j := 0; j < reduceBlockWords; j += reducePageSize / 8 {
					sum := 0.0
					for w := 0; w < nprocs; w++ {
						sum += contribution(w, r, j)
					}
					if got := s.ReadF64(addr(x, b, j)); got != sum {
						fail(me, "round %d: X-block %d word %d = %v, want %v", r, b, j, got, sum)
					}
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for me, fs := range frozen {
		for _, f := range fs {
			if crc32.ChecksumIEEE(f.sd.data) != f.sum {
				t.Fatalf("processor %d's snapshot of page %d (interval %d) changed after it was stored",
					me, f.sd.page, f.sd.nt.Interval)
			}
		}
	}
	msgs, bytes := cl.Stats.Totals()
	peaks := map[string]int64{}
	for k, m := range cl.Mem.Snapshot() {
		peaks[k.Cat] += m.PeakBytes
	}
	pins = fmt.Sprintf("time=%.3f msgs=%d bytes=%d", cl.MaxTime(), msgs, bytes)
	for _, cat := range slices.Sorted(maps.Keys(peaks)) {
		pins += fmt.Sprintf(" %s=%d", cat, peaks[cat])
	}
	d.Close()
	if err := cl.Mem.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return pins, after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotReadersCopyNothing pins that a whole-page snapshot costs
// the host one page buffer per page written, whatever the number of
// readers: readers alias the writer's frozen bytes, and only the next
// writer's copy-on-write break copies them. With every reader copying,
// each extra reader of X cost a page per page it read. The simulated
// run — clocks, traffic, ledger peaks — is the one copying readers
// produced.
func TestSnapshotReadersCopyNothing(t *testing.T) {
	pinned := map[[2]int]string{ // [procs, allRead]
		{4, 0}: "time=11195.200 msgs=220 bytes=343840 tmk.board=1600 tmk.diffs=328000 tmk.pages=262144",
		{4, 1}: "time=14371.200 msgs=284 bytes=478496 tmk.board=1600 tmk.diffs=328000 tmk.pages=262144",
		{8, 0}: "time=21692.160 msgs=828 bytes=1285056 tmk.board=8064 tmk.diffs=1180800 tmk.pages=1048576",
		{8, 1}: "time=31229.760 msgs=1212 bytes=2096064 tmk.board=8064 tmk.diffs=1180800 tmk.pages=1048576",
	}
	const rounds, more = 2, 8
	for _, nprocs := range []int{4, 8} {
		var whole, perRound [2]float64
		for all := range 2 {
			pins, short := writeAllReduce(t, nprocs, rounds, all == 1)
			_, long := writeAllReduce(t, nprocs, rounds+more, all == 1)
			if want := pinned[[2]int{nprocs, all}]; pins != want {
				t.Errorf("%d procs, all readers %v:\n got %s\nwant %s", nprocs, all == 1, pins, want)
			}
			whole[all], perRound[all] = float64(short), float64(long-short)/more
		}
		written := float64((nprocs + 1) * nprocs * reduceBlockPages * reducePageSize)
		t.Logf("%d procs: %.0f B with one reader, %.0f B with all; per round %.0f and %.0f B for %.0f B of pages written",
			nprocs, whole[0], whole[1], perRound[0], perRound[1], written)
		// Copying readers cost nprocs-2 copies of X here; the margin is
		// for the host's own noise, a quarter of one copy.
		xBytes := float64(nprocs * reduceBlockPages * reducePageSize)
		if extra := whole[1] - whole[0]; extra >= xBytes/4 {
			t.Errorf("%d procs: %d more readers of every X page cost %.0f host bytes, want less than a quarter of one copy of X (%.0f B)",
				nprocs, nprocs-2, extra, xBytes)
		}
		if d := math.Abs(perRound[1] - perRound[0]); d >= reducePageSize {
			t.Errorf("%d procs: a steady-state round costs %.0f host bytes more or less with every processor reading, want less than a page",
				nprocs, d)
		}
		for all, b := range perRound {
			if b < written || b > 1.25*written {
				t.Errorf("%d procs, all readers %v: %.0f host bytes per round, want one page buffer per page written (%.0f B) plus under a quarter",
					nprocs, all == 1, b, written)
			}
		}
	}
}
