package core

import (
	"testing"

	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

func TestFullyCoveredGeometry(t *testing.T) {
	c := sim.NewCluster(sim.DefaultConfig(1))
	d := tmk.New(c, 1024, 1<<20) // 128 float64 per page
	arr := &Array{Name: "a", Base: d.Alloc(8 * 1024), ElemSize: 8, Len: 1024}
	d.SealInit()
	rt := NewRuntime(d.Node(0))

	cases := []struct {
		lo, hi   int
		wantFull int
		name     string
	}{
		{0, 127, 1, "exactly one page"},
		{0, 1023, 8, "whole array"},
		{0, 130, 1, "page 0 full, page 1 partial"},
		{5, 255, 1, "start partial, page 1 exact"},
		{5, 250, 0, "both pages partial"},
		{5, 120, 0, "strict subset of one page"},
		{128, 255, 1, "second page exact"},
	}
	for _, tc := range cases {
		desc := &Desc{Type: Direct, Data: arr, Section: rsd.Range1(tc.lo, tc.hi), Access: WriteAll}
		if got := rt.fullyCovered(desc); int(got.hi-got.lo) != tc.wantFull {
			t.Errorf("%s: %d fully covered pages, want %d", tc.name, got.hi-got.lo, tc.wantFull)
		}
	}

	// Strided sections never qualify.
	desc := &Desc{Type: Direct, Data: arr,
		Section: rsd.Section{Dims: []rsd.Dim{{Lo: 0, Hi: 1022, Stride: 2}}}, Access: WriteAll}
	if got := rt.fullyCovered(desc); got.hi != got.lo {
		t.Errorf("strided section claimed %d full pages", got.hi-got.lo)
	}
	// Indirect descriptors never qualify.
	idx := &Array{Name: "i", Base: arr.Base, ElemSize: 4, Len: 8}
	desc = &Desc{Type: Indirect, Data: arr, Indir: idx,
		Section: rsd.Range1(0, 7), Access: ReadWriteAll}
	if got := rt.fullyCovered(desc); got.hi != got.lo {
		t.Errorf("indirect section claimed %d full pages", got.hi-got.lo)
	}
}

func TestBoundaryPagesKeepTwins(t *testing.T) {
	// A WRITE_ALL section that only partially covers its edge pages must
	// twin those pages (their outside bytes belong to someone else) and
	// may skip twins only on interior pages.
	e := newEnv(t, 2, 1024, 4, func(i int) int32 { return 0 })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			rt := NewRuntime(n)
			// Units 5..250: page 0 and part of page 1 (128 units/page at
			// 1024B pages)... page 1 fully covered, pages 0 and... unit
			// range covers pages 0..1 with page 1 = units 128..255
			// partially covered (250 < 255).
			rt.Validate(Desc{Type: Direct, Data: e.data,
				Section: rsd.Range1(5, 250), Access: WriteAll, Sched: 1})
			if n.TwinsMade == 0 {
				t.Error("boundary pages of a WRITE_ALL section must twin")
			}
			for i := 5; i <= 250; i++ {
				n.Space().WriteF64(e.data.Addr(i), float64(i))
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			// Outside bytes must be intact, inside bytes updated.
			if got := n.Space().ReadF64(e.data.Addr(3)); got != 3 {
				t.Errorf("outside unit 3 clobbered: %v", got)
			}
			if got := n.Space().ReadF64(e.data.Addr(100)); got != 100 {
				t.Errorf("inside unit 100 = %v", got)
			}
			if got := n.Space().ReadF64(e.data.Addr(255)); got != 255.0 {
				// unit 255 initialized to 255 by newEnv and not written.
				t.Errorf("outside unit 255 = %v", got)
			}
		}
		n.Barrier(2)
	})
}

func TestEmptySectionValidate(t *testing.T) {
	// A processor with no work (empty section) must not crash or fetch.
	e := newEnv(t, 2, 128, 8, func(i int) int32 { return 0 })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(4, 3), Access: Read, Sched: 1}) // empty
		}
		n.Barrier(1)
	})
}

func TestSectionChangeForcesRecompute(t *testing.T) {
	// Changing only the section bounds (the rebuild-moved-my-boundaries
	// case) must recompute even with no modification flag.
	e := newEnv(t, 2, 1000, 100, func(i int) int32 { return int32(i) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(0, 49), Access: Read, Sched: 1})
			rt.Validate(Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(50, 99), Access: Read, Sched: 1})
			if rt.Recomputes != 2 {
				t.Errorf("Recomputes = %d, want 2 (section changed)", rt.Recomputes)
			}
			if rt.Revalidates != 0 {
				t.Errorf("Revalidates = %d, want 0", rt.Revalidates)
			}
		}
		n.Barrier(1)
	})
}

func TestWatchedPageSharedByTwoSchedules(t *testing.T) {
	// Two schedules watching overlapping indirection pages must both see
	// the modified flag flip.
	e := newEnv(t, 2, 1000, 100, func(i int) int32 { return int32(i) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() != 0 {
			n.Barrier(1)
			n.Barrier(2)
			return
		}
		rt := NewRuntime(n)
		d1 := Desc{Type: Indirect, Data: e.data, Indir: e.indir,
			Section: rsd.Range1(0, 49), Access: Read, Sched: 1}
		d2 := Desc{Type: Indirect, Data: e.data, Indir: e.indir,
			Section: rsd.Range1(10, 59), Access: Read, Sched: 2}
		rt.Validate(d1, d2)
		n.Barrier(1)
		n.Space().WriteI32(e.indir.Addr(20), 999) // within both sections
		n.Barrier(2)
		rt.Validate(d1, d2)
		if rt.Recomputes != 4 {
			t.Errorf("Recomputes = %d, want 4 (both schedules twice)", rt.Recomputes)
		}
	})
}

func TestIndirectWriteTwinsDataPages(t *testing.T) {
	// An INDIRECT READ&WRITE descriptor must write-enable the data pages
	// so scatter stores run fault-free.
	e := newEnv(t, 2, 512, 64, func(i int) int32 { return int32(i * 7 % 512) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(0, 63), Access: ReadWrite, Sched: 1})
			wf := n.Space().WriteFaults
			for k := 0; k < 64; k++ {
				idx := int(n.Space().ReadI32(e.indir.Addr(k)))
				n.Space().WriteF64(e.data.Addr(idx), 1.0)
			}
			if n.Space().WriteFaults != wf {
				t.Errorf("scatter writes faulted %d times", n.Space().WriteFaults-wf)
			}
		}
		n.Barrier(1)
	})
}

func TestSectionPagesMatchesPerElementExpansion(t *testing.T) {
	// sectionPages walks contiguous runs; the definition it must agree
	// with expands every element: dense and strided sections, a
	// two-dimensional one, elements smaller and larger than the 1 KB
	// page, aligned and unaligned bases.
	img := tmk.NewImage(1024, 1<<22)
	img.AllocUnaligned(40) // push the next unaligned array off the page boundary
	arrays := []*Array{
		{Name: "i32", Base: img.AllocUnaligned(4 * 6000), ElemSize: 4, Len: 6000},
		{Name: "vec3", Base: img.Alloc(24 * 3000), ElemSize: 24, Len: 3000},
		{Name: "blob", Base: img.Alloc(2500 * 40), ElemSize: 2500, Len: 40},
	}
	img.Seal()
	d := tmk.NewFromImage(sim.NewCluster(sim.DefaultConfig(1)), img)
	rt := NewRuntime(d.Node(0))
	arena := img.Space().Arena()
	for _, arr := range arrays {
		rows := arr.Len / 2
		cases := []struct {
			sec   rsd.Section
			sizes []int
		}{
			{rsd.Range1(0, arr.Len-1), []int{arr.Len}},
			{rsd.Range1(arr.Len/3, arr.Len/2), []int{arr.Len}},
			{rsd.Range1(7, 6), []int{arr.Len}}, // empty
			{rsd.Section{Dims: []rsd.Dim{{Lo: 3, Hi: arr.Len - 1, Stride: 37}}}, []int{arr.Len}},
			{rsd.Section{Dims: []rsd.Dim{{Lo: 0, Hi: 1, Stride: 1}, {Lo: 5, Hi: rows - 3, Stride: 1}}}, []int{2, rows}},
			{rsd.Section{Dims: []rsd.Dim{{Lo: 1, Hi: 1, Stride: 1}, {Lo: 0, Hi: rows - 1, Stride: 9}}}, []int{2, rows}},
		}
		for _, cs := range cases {
			mark := map[vm.PageID]bool{}
			for _, off := range linearOffsets(cs.sec, cs.sizes) {
				first, last := arena.PageRange(arr.Addr(off), arr.ElemSize)
				for pg := first; pg <= last; pg++ {
					mark[pg] = true
				}
			}
			want := sortedPages(mark)
			prefix := []vm.PageID{1 << 20} // appending must not consult what out already holds
			got := rt.sectionPages(prefix, arr, cs.sec, cs.sizes)[1:]
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d pages, want %d", arr.Name, cs.sec, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %v: page %d is %d, want %d", arr.Name, cs.sec, i, got[i], want[i])
				}
			}
		}
	}
}
