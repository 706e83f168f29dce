package tmk

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// setUpBytes is the host bytes one New+SealInit+Close of an nprocs-node
// DSM over the given number of 4 KB pages allocates, averaged over reps.
func setUpBytes(nprocs, pages int) float64 {
	const reps = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		setUpTearDown(nprocs, pages*4096)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / reps
}

// TestSealInitBytesPerNodePageIndependentOfProcs pins that set-up pays a
// fixed number of bytes per (node, page), whatever the processor count:
// coherence metadata — the per-writer applied vector in particular — is
// allocated at a page's first protocol event, not for every page up
// front. A page costs its one shared 4 KB image plus the per-node
// bytes; an eager applied vector adds 4·nprocs bytes per (node, page).
func TestSealInitBytesPerNodePageIndependentOfProcs(t *testing.T) {
	const lo, hi = 256, 2048
	perNodePage := func(nprocs int) float64 {
		perPage := (setUpBytes(nprocs, hi) - setUpBytes(nprocs, lo)) / (hi - lo)
		return (perPage - 4096) / float64(nprocs)
	}
	b4, b16 := perNodePage(4), perNodePage(16)
	t.Logf("set-up bytes per (node, page): %.1f at 4 procs, %.1f at 16", b4, b16)
	if b16 > b4+4 {
		t.Fatalf("set-up bytes per (node, page) grow with the processor count: %.1f at 4 procs, %.1f at 16", b4, b16)
	}
}

// lazyOutcome is a protocol run's observable end state: per node its
// vector time, clock, counters, and every page's protection and
// coherence state (a missing entry reads as applied nothing, nothing
// pending), plus the cluster's traffic and memory ledger.
type lazyOutcome struct {
	VC      [][]int32
	Clocks  []float64
	Counts  [][3]int64 // DiffsCreated, DiffsApplied, TwinsMade
	Prot    [][]vm.Prot
	Applied [][][]int32
	Pending [][]int
	Traffic map[string]sim.CatStat
	Mem     map[sim.MemKey]sim.MemStat
}

// lazyWorld runs a protocol program over an arena of 4,096 1 KB pages
// of which it touches three: page 0 is written by processor 0 and first
// reaches the others as a remote write notice; page 3 is first touched
// by processor 2's MarkFullyWritten (a WRITE_ALL); page 5 is written by
// everyone. Processors 1 and 3 demand-fetch pages 0 and 3 between the
// first two barriers, and after the second every processor reads all
// three pages. With eager set, every page's metadata is created before
// the run, as an eager SealInit would.
func lazyWorld(t *testing.T, eager bool) (lazyOutcome, []int) {
	t.Helper()
	const np, wordsPerPage = 4, 128
	c := sim.NewCluster(sim.DefaultConfig(np))
	d := New(c, 1024, 1<<22)
	base := d.Alloc(1 << 22)
	d.SealInit()
	numPages := d.img.arena.NumPages()
	if eager {
		for i := 0; i < np; i++ {
			for pg := 0; pg < numPages; pg++ {
				d.Node(i).meta(vm.PageID(pg))
			}
		}
	}
	word := func(page, w int) vm.Addr { return base + vm.Addr(8*(page*wordsPerPage+w)) }
	page3 := d.img.arena.PageOf(word(3, 0))
	c.Run(func(p *sim.Proc) {
		me := p.ID()
		n := d.Node(me)
		s := n.Space()
		switch me {
		case 0:
			s.WriteF64(word(0, 7), 7)
		case 2:
			n.MarkFullyWritten(page3)
			for w := 0; w < wordsPerPage; w++ {
				s.WriteF64(word(3, w), float64(w))
			}
		}
		n.Barrier(1)
		s.WriteF64(word(5, 8*me), float64(me+1))
		if me == 1 {
			_ = s.ReadF64(word(0, 7))
		}
		if me == 3 {
			_ = s.ReadF64(word(3, 9))
		}
		n.Barrier(2)
		if got := s.ReadF64(word(0, 7)); got != 7 {
			t.Errorf("proc %d: page 0 word 7 = %v, want 7", me, got)
		}
		if got := s.ReadF64(word(3, 100)); got != 100 {
			t.Errorf("proc %d: page 3 word 100 = %v, want 100", me, got)
		}
		for q := 0; q < np; q++ {
			if got := s.ReadF64(word(5, 8*q)); got != float64(q+1) {
				t.Errorf("proc %d: page 5 word %d = %v, want %d", me, 8*q, got, q+1)
			}
		}
		n.Barrier(3)
	})
	out := lazyOutcome{Traffic: c.Stats.Categories(), Mem: c.Mem.Snapshot()}
	var created []int
	for i := 0; i < np; i++ {
		n := d.Node(i)
		out.VC = append(out.VC, n.vc.Clone())
		out.Clocks = append(out.Clocks, n.proc.Clock())
		out.Counts = append(out.Counts, [3]int64{n.DiffsCreated, n.DiffsApplied, n.TwinsMade})
		prot := make([]vm.Prot, numPages)
		applied := make([][]int32, numPages)
		pending := make([]int, numPages)
		k := 0
		for pg := range n.pages {
			prot[pg] = n.space.Page(vm.PageID(pg)).Prot()
			applied[pg] = make([]int32, np)
			if m := n.pages[pg]; m != nil {
				copy(applied[pg], m.applied)
				pending[pg] = len(m.pending)
				k++
			}
		}
		out.Prot = append(out.Prot, prot)
		out.Applied = append(out.Applied, applied)
		out.Pending = append(out.Pending, pending)
		created = append(created, k)
	}
	d.Close()
	if err := c.Mem.CheckBalanced(); err != nil {
		t.Fatal(err)
	}
	return out, created
}

// TestLazyPageMetadata pins that creating a page's coherence state at its
// first protocol event changes nothing observable: the run ends in the
// same state — down to every page's applied vector — as with every
// page's state created up front, with the simulated time and traffic the
// eager protocol produced, while the untouched pages never get any.
func TestLazyPageMetadata(t *testing.T) {
	lazy, created := lazyWorld(t, false)
	eager, _ := lazyWorld(t, true)
	if !reflect.DeepEqual(lazy, eager) {
		t.Fatalf("lazy and eager page metadata end differently:\nlazy:  vc %v clocks %v counts %v traffic %v\neager: vc %v clocks %v counts %v traffic %v",
			lazy.VC, lazy.Clocks, lazy.Counts, lazy.Traffic, eager.VC, eager.Clocks, eager.Counts, eager.Traffic)
	}
	for i, k := range created {
		if k == 0 || k > 3 {
			t.Errorf("node %d created metadata for %d pages, want 1-3 (pages 0, 3, 5)", i, k)
		}
	}
	// The figures an eager SealInit produced for this program.
	wantClocks := []float64{1399.21, 1485.01, 1485.01, 1485.01}
	wantTraffic := map[string]sim.CatStat{
		"barrier":  {Messages: 18, Bytes: 1236},
		"tmk.diff": {Messages: 36, Bytes: 5115},
	}
	if !reflect.DeepEqual(lazy.Clocks, wantClocks) || !reflect.DeepEqual(lazy.Traffic, wantTraffic) {
		t.Errorf("end state moved: clocks %v traffic %v, want %v and %v", lazy.Clocks, lazy.Traffic, wantClocks, wantTraffic)
	}
	if got := lazy.Applied[1][0]; !reflect.DeepEqual(got, []int32{1, 0, 0, 0}) {
		t.Errorf("node 1 page 0 applied %v, want [1 0 0 0]", got)
	}
	if got := lazy.Applied[3][3]; !reflect.DeepEqual(got, []int32{0, 0, 1, 0}) {
		t.Errorf("node 3 page 3 applied %v, want [0 0 1 0]", got)
	}
}
