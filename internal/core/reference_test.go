package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// pageSetReference is the map-based Validate the dense implementation
// replaced, kept as the specification Runtime is checked against: the
// same page sets, fetch lists, consistency actions and simulated charges
// for every descriptor sequence. Sections are expanded element by
// element, every set is a map, and every output is sorted afresh.
type pageSetReference struct {
	n         *tmk.Node
	cost      Runtime // the default cost model, copied from NewRuntime
	schedules map[int]*refSchedule
	watched   map[vm.PageID][]*refSchedule

	scanEntries, recomputes, revalidates int64

	// What the latest validate did: each descriptor's page set, the
	// aggregated fetch list, and the pages it twinned or marked fully
	// written.
	sets              [][]vm.PageID
	fetch, twin, full []vm.PageID
}

type refSchedule struct {
	pages              []vm.PageID
	computed, modified bool
	section            rsd.Section
	watch              []vm.PageID
}

func newPageSetReference(n *tmk.Node) *pageSetReference {
	ref := &pageSetReference{
		n:         n,
		cost:      *NewRuntime(n), // registers DiffKind; the hooks are replaced below
		schedules: map[int]*refSchedule{},
		watched:   map[vm.PageID][]*refSchedule{},
	}
	modified := func(pg vm.PageID) {
		for _, sch := range ref.watched[pg] {
			sch.modified = true
		}
	}
	n.WriteFaultHook = modified
	n.InvalidateHook = modified
	return ref
}

func (ref *pageSetReference) validate(descs ...Desc) {
	ref.sets, ref.fetch, ref.twin, ref.full = nil, nil, nil, nil
	covered := make([]map[vm.PageID]bool, len(descs))
	seen := map[vm.PageID]bool{}
	for i := range descs {
		d := &descs[i]
		if d.Access.full() {
			covered[i] = ref.fullyCovered(d)
		}
		var pages []vm.PageID
		switch d.Type {
		case Indirect:
			sch := ref.schedules[d.Sched]
			if sch == nil {
				sch = &refSchedule{modified: true}
				ref.schedules[d.Sched] = sch
			}
			if !sch.computed || sch.modified || !sch.section.Equal(d.Section) {
				ref.readIndices(sch, d)
				ref.writeProtect(sch, d)
				sch.computed = true
				sch.modified = false
				sch.section = d.Section
				ref.recomputes++
			} else {
				ref.revalidates++
			}
			pages = sch.pages
		case Direct:
			pages = ref.sectionPages(d.Data, d.Section, []int{d.Data.Len})
		}
		ref.sets = append(ref.sets, pages)
		for _, pg := range pages {
			if d.Access == WriteAll && covered[i][pg] {
				continue
			}
			if ref.n.IsInvalid(pg) && !seen[pg] {
				seen[pg] = true
				ref.fetch = append(ref.fetch, pg)
			}
		}
	}
	if len(ref.fetch) > 0 {
		ref.n.FetchPages(ref.fetch, DiffKind)
	}
	for i := range descs {
		d := &descs[i]
		if !d.Access.writes() {
			continue
		}
		for _, pg := range ref.sets[i] {
			if d.Access.full() && covered[i][pg] {
				ref.full = append(ref.full, pg)
				ref.n.MarkFullyWritten(pg)
			} else {
				ref.twin = append(ref.twin, pg)
				ref.n.TwinForWrite(pg, false)
			}
		}
	}
}

func (ref *pageSetReference) fullyCovered(d *Desc) map[vm.PageID]bool {
	if d.Type != Direct || len(d.Section.Dims) != 1 || d.Section.Dims[0].Stride != 1 {
		return nil
	}
	dim := d.Section.Dims[0]
	if dim.Hi < dim.Lo {
		return nil
	}
	startB := int(d.Data.Addr(dim.Lo))
	endB := int(d.Data.Addr(dim.Hi)) + d.Data.ElemSize
	ps := ref.n.Space().Arena().PageSize()
	out := map[vm.PageID]bool{}
	for pg := (startB + ps - 1) / ps; pg < endB/ps; pg++ {
		out[vm.PageID(pg)] = true
	}
	return out
}

func refIndirSizes(d *Desc) []int {
	if len(d.IndirDims) > 0 {
		return d.IndirDims
	}
	return []int{d.Indir.Len}
}

func (ref *pageSetReference) readIndices(sch *refSchedule, d *Desc) {
	arena := ref.n.Space().Arena()
	space := ref.n.Space()
	offsets := linearOffsets(d.Section, refIndirSizes(d))
	ref.prefetchSection(d.Indir, d.Section, refIndirSizes(d))

	mark := map[vm.PageID]bool{}
	for _, off := range offsets {
		v := space.ReadI32(d.Indir.Addr(off))
		first, last := arena.PageRange(d.Data.Addr(int(v)), d.Data.ElemSize)
		for pg := first; pg <= last; pg++ {
			mark[pg] = true
		}
	}
	scanned := int64(len(offsets))
	ref.scanEntries += scanned
	sch.pages = sortedPages(mark)
	ref.n.Proc().Advance(ref.cost.ScanUSPerEntry*float64(scanned) +
		ref.cost.PageSetUSPerPage*float64(len(sch.pages)))
}

func (ref *pageSetReference) writeProtect(sch *refSchedule, d *Desc) {
	for _, pg := range sch.watch {
		ws := ref.watched[pg]
		for i, s := range ws {
			if s == sch {
				ref.watched[pg] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
	sch.watch = nil
	space := ref.n.Space()
	for _, pg := range ref.sectionPages(d.Indir, d.Section, refIndirSizes(d)) {
		sch.watch = append(sch.watch, pg)
		ref.watched[pg] = append(ref.watched[pg], sch)
		if space.Page(pg).Prot() == vm.ReadWrite {
			space.Protect(pg, vm.ReadOnly)
		}
	}
}

func (ref *pageSetReference) prefetchSection(arr *Array, sec rsd.Section, sizes []int) {
	var fetch []vm.PageID
	for _, pg := range ref.sectionPages(arr, sec, sizes) {
		if ref.n.IsInvalid(pg) {
			fetch = append(fetch, pg)
		}
	}
	if len(fetch) > 0 {
		ref.n.FetchPages(fetch, DiffKind)
	}
}

// sectionPages is the definition Runtime.sectionPages must agree with:
// the pages of every element of the section, sorted.
func (ref *pageSetReference) sectionPages(arr *Array, sec rsd.Section, sizes []int) []vm.PageID {
	arena := ref.n.Space().Arena()
	mark := map[vm.PageID]bool{}
	for _, off := range linearOffsets(sec, sizes) {
		first, last := arena.PageRange(arr.Addr(off), arr.ElemSize)
		for pg := first; pg <= last; pg++ {
			mark[pg] = true
		}
	}
	return sortedPages(mark)
}

// linearOffsets expands sec element by element into flat column-major
// offsets within an array of the given dimension sizes, the last
// dimension varying slowest.
func linearOffsets(sec rsd.Section, sizes []int) []int {
	if len(sec.Dims) == 0 {
		return nil
	}
	out := []int{0}
	for i := len(sec.Dims) - 1; i >= 0; i-- {
		stride := 1
		for _, sz := range sizes[:i] {
			stride *= sz
		}
		var next []int
		for _, off := range out {
			for v := sec.Dims[i].Lo; v <= sec.Dims[i].Hi; v += sec.Dims[i].Stride {
				next = append(next, off+v*stride)
			}
		}
		out = next
	}
	return out
}

func sortedPages(mark map[vm.PageID]bool) []vm.PageID {
	out := make([]vm.PageID, 0, len(mark))
	for pg := range mark {
		out = append(out, pg)
	}
	slices.Sort(out)
	return out
}

// validateObs is what one Validate call leaves behind on its node.
type validateObs struct {
	Sets                    [][]vm.PageID // each descriptor's page set, in argument order
	Scheds                  [][]vm.PageID // each Indirect descriptor's cached set after the call
	Fetch, Twin, Full       []vm.PageID
	Scan                    int64
	Recomputes, Revalidates int64
	Clock                   float64
	TwinsMade, DiffsApplied int64
	Prot                    string // every arena page's protection on this node
}

// validator is one side of the comparison.
type validator interface {
	validate(descs ...Desc)
	observe(descs []Desc) validateObs
}

type runtimeSide struct{ rt *Runtime }

func (s runtimeSide) validate(descs ...Desc) { s.rt.Validate(descs...) }

func (s runtimeSide) observe(descs []Desc) validateObs {
	rt := s.rt
	o := nodeObs(rt.n, rt.ScanEntries, rt.Recomputes, rt.Revalidates)
	for i := range descs {
		d := &descs[i]
		if d.Type == Indirect {
			o.Scheds = append(o.Scheds, clone(rt.sched(d.Sched).pages))
		}
	}
	observeScratch(rt, descs, &o)
	return o
}

// observeScratch reads what the last Validate left in the runtime's
// scratch: each descriptor's page set, the fetch list, and — from the
// page sets and fully covered intervals — the twinned and fully
// written pages.
func observeScratch(rt *Runtime, descs []Desc, o *validateObs) {
	o.Fetch = clone(rt.fetch)
	for i := range descs {
		d := &descs[i]
		set := rt.pageSets[i]
		o.Sets = append(o.Sets, clone(set))
		if !d.Access.writes() {
			continue
		}
		cov := rt.covered[i]
		for _, pg := range set {
			if d.Access.full() && cov.has(pg) {
				o.Full = append(o.Full, pg)
			} else {
				o.Twin = append(o.Twin, pg)
			}
		}
	}
}

type referenceSide struct{ ref *pageSetReference }

func (s referenceSide) validate(descs ...Desc) { s.ref.validate(descs...) }

func (s referenceSide) observe(descs []Desc) validateObs {
	ref := s.ref
	o := nodeObs(ref.n, ref.scanEntries, ref.recomputes, ref.revalidates)
	for i := range descs {
		if descs[i].Type == Indirect {
			o.Scheds = append(o.Scheds, clone(ref.schedules[descs[i].Sched].pages))
		}
	}
	for _, set := range ref.sets {
		o.Sets = append(o.Sets, clone(set))
	}
	o.Fetch, o.Twin, o.Full = clone(ref.fetch), clone(ref.twin), clone(ref.full)
	return o
}

// clone copies s, reporting an empty list as nil whichever way it was
// made.
func clone(s []vm.PageID) []vm.PageID {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

func nodeObs(n *tmk.Node, scan, recomputes, revalidates int64) validateObs {
	var prot []byte
	for pg := 0; pg < n.Space().Arena().NumPages(); pg++ {
		prot = append(prot, byte('0'+n.Space().Page(vm.PageID(pg)).Prot()))
	}
	return validateObs{
		Scan: scan, Recomputes: recomputes, Revalidates: revalidates,
		Clock: n.Proc().Clock(), TwinsMade: n.TwinsMade, DiffsApplied: n.DiffsApplied,
		Prot: string(prot),
	}
}

// refWorld is one seeded test world: a data array and an int32
// indirection array whose values all lie in [0, indirLen), within the
// data.
type refWorld struct {
	pageSize  int
	elemSize  int // data element size; 24 at a 1 KB page straddles pages
	unaligned bool
	nprocs    int
	indirLen  int
	dataLen   int
	// spread > 0 draws entry i of the indirection array from i±spread, as
	// a partitioned mesh does; 0 draws it uniformly from [0, indirLen).
	spread int
}

type refArrays struct {
	data, indir *Array
}

func (w refWorld) build(seed int64, trace *obs.Trace) (*sim.Cluster, *tmk.DSM, refArrays) {
	img := tmk.NewImage(w.pageSize, 1<<22)
	alloc := img.Alloc
	if w.unaligned {
		img.AllocUnaligned(44)
		alloc = img.AllocUnaligned
	}
	a := refArrays{
		data:  &Array{Name: "x", Base: alloc(w.elemSize * w.dataLen), ElemSize: w.elemSize, Len: w.dataLen},
		indir: &Array{Name: "list", Base: alloc(4 * w.indirLen), ElemSize: 4, Len: w.indirLen},
	}
	rng := rand.New(rand.NewSource(seed))
	s0 := img.Space()
	for i := 0; i < w.dataLen; i++ {
		s0.WriteI32(a.data.Addr(i), int32(i))
	}
	for i := 0; i < w.indirLen; i++ {
		v := rng.Intn(w.indirLen)
		if w.spread > 0 {
			v = (i + rng.Intn(2*w.spread+1) - w.spread + w.indirLen) % w.indirLen
		}
		s0.WriteI32(a.indir.Addr(i), int32(v))
	}
	img.Seal()
	cfg := sim.DefaultConfig(w.nprocs)
	cfg.Trace = trace
	c := sim.NewCluster(cfg)
	return c, tmk.NewFromImage(c, img), a
}

// section draws a 1-D section of [0, n): usually non-empty, sometimes a
// stride other than 1, rarely empty.
func section(r *rand.Rand, n int) rsd.Section {
	lo := r.Intn(n)
	hi := lo + r.Intn(n-lo)
	if r.Intn(12) == 0 {
		hi = lo - 1
	}
	return rsd.Section{Dims: []rsd.Dim{{Lo: lo, Hi: hi, Stride: []int{1, 1, 2, 3, 7}[r.Intn(5)]}}}
}

// descs draws one Validate call's descriptors. Each kind of descriptor
// has its own schedule numbers; a schedule keeps its previous section
// half the time, so rewrites of its indirection array (not only section
// changes) drive recomputation.
func (w refWorld) descs(r *rand.Rand, a refArrays, last map[int]Desc) []Desc {
	var out []Desc
	for k := 1 + r.Intn(3); k > 0; k-- {
		var d Desc
		switch kind := r.Intn(4); kind {
		case 0: // 1-D indirect
			d = Desc{Type: Indirect, Data: a.data, Indir: a.indir, Section: section(r, w.indirLen),
				Access: []AccessType{Read, Write, ReadWrite, ReadWriteAll}[r.Intn(4)], Sched: 1 + r.Intn(2)}
		case 1: // the moldyn shape: interaction_list(2, M)
			cols := w.indirLen / 2
			col := section(r, cols).Dims[0]
			row := []rsd.Dim{{Lo: 0, Hi: 1, Stride: 1}, {Lo: 1, Hi: 1, Stride: 1}, {Lo: 0, Hi: 0, Stride: 1}}[r.Intn(3)]
			d = Desc{Type: Indirect, Data: a.data, Indir: a.indir, Section: rsd.Section{Dims: []rsd.Dim{row, col}},
				IndirDims: []int{2, cols}, Access: []AccessType{Read, ReadWrite}[r.Intn(2)], Sched: 3}
		default: // direct, WRITE_ALL half the time
			d = Desc{Type: Direct, Data: a.data, Section: section(r, w.dataLen),
				Access: []AccessType{Read, ReadWrite, WriteAll, WriteAll, ReadWriteAll}[r.Intn(5)], Sched: 9}
		}
		if prev, ok := last[d.Sched]; ok && d.Type == Indirect && r.Intn(2) == 0 {
			d.Section = prev.Section
			d.IndirDims = prev.IndirDims
		}
		last[d.Sched] = d
		out = append(out, d)
	}
	return out
}

// run executes the seeded program against one side and returns every
// node's observations, the traffic statistics and the trace.
func (w refWorld) run(seed int64, epochs int,
	side func(n *tmk.Node) validator) ([][]validateObs, map[string]sim.CatStat, []byte) {
	trace := obs.NewTrace()
	c, d, a := w.build(seed, trace)
	out := make([][]validateObs, w.nprocs)
	c.Run(func(p *sim.Proc) {
		n := d.Node(p.ID())
		v := side(n)
		r := rand.New(rand.NewSource(seed*131 + int64(p.ID())))
		last := map[int]Desc{}
		for e := 0; e < epochs; e++ {
			n.Barrier(e + 1)
			descs := w.descs(r, a, last)
			v.validate(descs...)
			out[p.ID()] = append(out[p.ID()], v.observe(descs))
			// Loop body: stores into the data, and now and then a rebuild
			// of part of the indirection array.
			for k := r.Intn(6); k > 0; k-- {
				n.Space().WriteI32(a.data.Addr(r.Intn(w.dataLen)), int32(e))
			}
			if r.Intn(3) == 0 {
				for k := 1 + r.Intn(8); k > 0; k-- {
					n.Space().WriteI32(a.indir.Addr(r.Intn(w.indirLen)), int32(r.Intn(w.indirLen)))
				}
			}
		}
		n.Barrier(epochs + 1)
	})
	return out, c.Stats.Categories(), trace.JSON()
}

func newRuntimeSide(n *tmk.Node) validator { return runtimeSide{NewRuntime(n)} }

func newReferenceSide(n *tmk.Node) validator {
	return referenceSide{newPageSetReference(n)}
}

// compareWithReference runs the same seeded program against Runtime and
// against pageSetReference and requires identical observations after
// every Validate, identical traffic, and byte-identical traces (which
// pin every fetch exchange, barrier and memory charge with its time).
func compareWithReference(t *testing.T, w refWorld, seed int64, epochs int) {
	t.Helper()
	got, gotStats, gotTrace := w.run(seed, epochs, newRuntimeSide)
	want, wantStats, wantTrace := w.run(seed, epochs, newReferenceSide)
	for p := range want {
		for e := range want[p] {
			if !reflect.DeepEqual(got[p][e], want[p][e]) {
				t.Fatalf("seed %d proc %d epoch %d: Validate differs from the reference\n got %+v\nwant %+v",
					seed, p, e, got[p][e], want[p][e])
			}
		}
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("seed %d: traffic %v, reference %v", seed, gotStats, wantStats)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("seed %d: trace differs from the reference's", seed)
	}
}

func TestValidateMatchesReferenceProperty(t *testing.T) {
	worlds := []refWorld{
		{pageSize: 1024, elemSize: 8, nprocs: 3, indirLen: 700, dataLen: 900},
		{pageSize: 1024, elemSize: 8, nprocs: 3, indirLen: 1500, dataLen: 1600, spread: 40},
		{pageSize: 1024, elemSize: 24, unaligned: true, nprocs: 3, indirLen: 500, dataLen: 520, spread: 10},
		{pageSize: 512, elemSize: 40, unaligned: true, nprocs: 2, indirLen: 300, dataLen: 400},
		{pageSize: 4096, elemSize: 8, nprocs: 4, indirLen: 2000, dataLen: 3000, spread: 100},
	}
	for wi, w := range worlds {
		for seed := int64(1); seed <= 4; seed++ {
			compareWithReference(t, w, int64(wi)*100+seed, 8)
		}
	}
}

func TestValidateMatchesReferenceSameSchedTwice(t *testing.T) {
	// Two descriptors of one schedule in one call, with different
	// sections: the second recomputes the schedule while the first's page
	// set is still to be twinned in pass 3, so the recomputation must not
	// overwrite it.
	w := refWorld{pageSize: 1024, elemSize: 8, nprocs: 2, indirLen: 600, dataLen: 800, spread: 5}
	side := func(mk func(*tmk.Node) validator) [][]validateObs {
		c, d, a := w.build(7, nil)
		out := make([][]validateObs, w.nprocs)
		c.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			v := mk(n)
			for e := 0; e < 3; e++ {
				n.Barrier(e + 1)
				descs := []Desc{
					{Type: Indirect, Data: a.data, Indir: a.indir, Section: rsd.Range1(0, 99), Access: ReadWrite, Sched: 1},
					{Type: Indirect, Data: a.data, Indir: a.indir, Section: rsd.Range1(300, 599), Access: ReadWrite, Sched: 1},
					{Type: Indirect, Data: a.data, Indir: a.indir, Section: rsd.Range1(300, 599), Access: Read, Sched: 1},
				}
				v.validate(descs...)
				out[p.ID()] = append(out[p.ID()], v.observe(descs))
				n.Space().WriteI32(a.indir.Addr(50+p.ID()), int32(700+e))
			}
			n.Barrier(4)
		})
		return out
	}
	got, want := side(newRuntimeSide), side(newReferenceSide)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if s := got[0][0].Sets; len(s) != 3 || slices.Equal(s[0], s[1]) {
		t.Fatalf("the two sections' page sets should differ: %v", s)
	}
}

func TestValidateMatchesReferenceRewrites(t *testing.T) {
	// Recomputation across rounds of indirection rewrites, local and
	// remote, with a fixed section: the modified flag alone must trigger
	// one rescan per round.
	w := refWorld{pageSize: 1024, elemSize: 8, nprocs: 3, indirLen: 900, dataLen: 1200, spread: 20}
	side := func(mk func(*tmk.Node) validator) ([][]validateObs, []byte) {
		trace := obs.NewTrace()
		c, d, a := w.build(11, trace)
		out := make([][]validateObs, w.nprocs)
		c.Run(func(p *sim.Proc) {
			n := d.Node(p.ID())
			v := mk(n)
			r := rand.New(rand.NewSource(int64(p.ID())))
			lo := 300 * p.ID()
			descs := []Desc{{Type: Indirect, Data: a.data, Indir: a.indir,
				Section: rsd.Range1(lo, lo+299), Access: ReadWrite, Sched: 1}}
			for e := 0; e < 6; e++ {
				n.Barrier(e + 1)
				v.validate(descs...)
				out[p.ID()] = append(out[p.ID()], v.observe(descs))
				for k := 0; k < 5; k++ {
					n.Space().WriteI32(a.indir.Addr(r.Intn(w.indirLen)), int32(r.Intn(w.dataLen)))
				}
			}
			n.Barrier(7)
		})
		return out, trace.JSON()
	}
	got, gotTrace := side(newRuntimeSide)
	want, wantTrace := side(newReferenceSide)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("trace differs from the reference's")
	}
	if last := got[0][len(got[0])-1]; last.Recomputes != 6 {
		t.Fatalf("Recomputes = %d, want 6 (one per round)", last.Recomputes)
	}
}
