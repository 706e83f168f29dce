package core

import (
	"testing"

	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
	"repro/internal/vm"
)

// env is a 2-array test world: a data array of n float64 units and an
// indirection array of m int32 indices into it, initialized by proc 0.
type env struct {
	c     *sim.Cluster
	d     *tmk.DSM
	data  *Array
	indir *Array
}

func newEnv(t testing.TB, nprocs, dataLen, indirLen int, indices func(i int) int32) *env {
	t.Helper()
	c := sim.NewCluster(sim.DefaultConfig(nprocs))
	d := tmk.New(c, 1024, 1<<22)
	data := &Array{Name: "x", Base: d.Alloc(8 * dataLen), ElemSize: 8, Len: dataLen}
	indir := &Array{Name: "list", Base: d.Alloc(4 * indirLen), ElemSize: 4, Len: indirLen}
	s0 := d.Node(0).Space()
	for i := 0; i < dataLen; i++ {
		s0.WriteF64(data.Addr(i), float64(i))
	}
	for i := 0; i < indirLen; i++ {
		s0.WriteI32(indir.Addr(i), indices(i))
	}
	d.SealInit()
	return &env{c: c, d: d, data: data, indir: indir}
}

func TestReadIndicesComputesPageSet(t *testing.T) {
	// Indirection entries point at units 0 and 500; page size 1024 = 128
	// units, so the page set is exactly {page(0), page(500/128)}.
	e := newEnv(t, 2, 1000, 10, func(i int) int32 {
		if i%2 == 0 {
			return 0
		}
		return 500
	})
	e.c.Run(func(p *sim.Proc) {
		if p.ID() != 1 {
			e.d.Node(p.ID()).Barrier(1)
			return
		}
		rt := NewRuntime(e.d.Node(1))
		rt.Validate(Desc{
			Type: Indirect, Data: e.data, Indir: e.indir,
			Section: rsd.Range1(0, 9), Access: Read, Sched: 1,
		})
		if rt.Recomputes != 1 {
			t.Errorf("Recomputes = %d", rt.Recomputes)
		}
		arena := e.d.Node(0).Space().Arena()
		sch := rt.sched(1)
		want := []vm.PageID{arena.PageOf(e.data.Addr(0)), arena.PageOf(e.data.Addr(500))}
		if len(sch.pages) != 2 || sch.pages[0] != want[0] || sch.pages[1] != want[1] {
			t.Errorf("pages = %v, want %v", sch.pages, want)
		}
		e.d.Node(1).Barrier(1)
	})
}

func TestScheduleReusedWhenIndirectionUnchanged(t *testing.T) {
	e := newEnv(t, 2, 1000, 50, func(i int) int32 { return int32(i * 17 % 1000) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 1 {
			rt := NewRuntime(n)
			desc := Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(0, 49), Access: Read, Sched: 1}
			for it := 0; it < 5; it++ {
				rt.Validate(desc)
				n.Barrier(10 + it)
			}
			if rt.Recomputes != 1 || rt.Revalidates != 4 {
				t.Errorf("Recomputes=%d Revalidates=%d, want 1/4", rt.Recomputes, rt.Revalidates)
			}
		} else {
			for it := 0; it < 5; it++ {
				n.Barrier(10 + it)
			}
		}
	})
}

func TestLocalWriteToIndirectionTriggersRecompute(t *testing.T) {
	// The same processor that validated later rewrites the indirection
	// array: the write-protection fault must set the modified flag.
	e := newEnv(t, 2, 1000, 50, func(i int) int32 { return int32(i) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() != 0 {
			for i := 1; i <= 3; i++ {
				n.Barrier(i)
			}
			return
		}
		rt := NewRuntime(n)
		desc := Desc{Type: Indirect, Data: e.data, Indir: e.indir,
			Section: rsd.Range1(0, 49), Access: Read, Sched: 1}
		rt.Validate(desc)
		n.Barrier(1)
		// Rewrite one indirection entry locally.
		n.Space().WriteI32(e.indir.Addr(7), 999)
		n.Barrier(2)
		rt.Validate(desc)
		if rt.Recomputes != 2 {
			t.Errorf("Recomputes = %d, want 2 after local modification", rt.Recomputes)
		}
		arena := e.d.Node(0).Space().Arena()
		found := false
		for _, pg := range rt.sched(1).pages {
			if pg == arena.PageOf(e.data.Addr(999)) {
				found = true
			}
		}
		if !found {
			t.Error("recomputed page set misses the new target page")
		}
		n.Barrier(3)
	})
}

func TestRemoteWriteToIndirectionTriggersRecompute(t *testing.T) {
	// Another processor rebuilds the indirection array; the invalidation
	// arriving at the barrier must set the modified flag ("both local and
	// remote modifications").
	e := newEnv(t, 2, 1000, 50, func(i int) int32 { return int32(i) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			rt := NewRuntime(n)
			desc := Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(0, 49), Access: Read, Sched: 1}
			rt.Validate(desc)
			n.Barrier(1)
			n.Barrier(2) // proc 1 rewrites between these barriers
			rt.Validate(desc)
			if rt.Recomputes != 2 {
				t.Errorf("Recomputes = %d, want 2 after remote modification", rt.Recomputes)
			}
			n.Barrier(3)
		} else {
			n.Barrier(1)
			n.Space().WriteI32(e.indir.Addr(3), 888)
			n.Barrier(2)
			n.Barrier(3)
		}
	})
}

func TestValidatePrefetchEliminatesLoopFaults(t *testing.T) {
	// After Validate, the indirect loop must run without a single page
	// fault — the pages were fetched and (for writes) twinned ahead.
	e := newEnv(t, 2, 2000, 100, func(i int) int32 { return int32(i * 19 % 2000) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			// Touch many data pages so proc 1's copies get invalidated.
			for i := 0; i < 2000; i += 100 {
				n.Space().WriteF64(e.data.Addr(i), float64(-i))
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Indirect, Data: e.data, Indir: e.indir,
				Section: rsd.Range1(0, 99), Access: ReadWrite, Sched: 1})
			rf, wf := n.Space().ReadFaults, n.Space().WriteFaults
			for i := 0; i < 100; i++ {
				idx := int(n.Space().ReadI32(e.indir.Addr(i)))
				v := n.Space().ReadF64(e.data.Addr(idx))
				n.Space().WriteF64(e.data.Addr(idx), v+1)
			}
			if n.Space().ReadFaults != rf || n.Space().WriteFaults != wf {
				t.Errorf("loop faulted: +%d read, +%d write",
					n.Space().ReadFaults-rf, n.Space().WriteFaults-wf)
			}
		}
		n.Barrier(2)
	})
}

func TestValidateAggregationMessageCount(t *testing.T) {
	// Proc 0 dirties many pages; proc 1's Validate must fetch them all
	// in a single exchange (2 messages), vs 2 per page without
	// aggregation.
	run := func(noAgg bool) int64 {
		e := newEnv(t, 2, 2000, 100, func(i int) int32 { return int32(i * 20 % 2000) })
		e.c.Run(func(p *sim.Proc) {
			n := e.d.Node(p.ID())
			if p.ID() == 0 {
				for i := 0; i < 2000; i += 64 {
					n.Space().WriteF64(e.data.Addr(i), 1)
				}
			}
			n.Barrier(1)
			if p.ID() == 1 {
				rt := NewRuntime(n)
				rt.NoAggregation = noAgg
				rt.Validate(Desc{Type: Indirect, Data: e.data, Indir: e.indir,
					Section: rsd.Range1(0, 99), Access: Read, Sched: 1})
			}
			n.Barrier(2)
		})
		return e.c.Stats.Categories()[DiffKind].Messages
	}
	agg := run(false)
	per := run(true)
	if agg != 2 {
		t.Errorf("aggregated Validate used %d messages, want 2", agg)
	}
	if per <= agg {
		t.Errorf("per-page fetch (%d msgs) not worse than aggregated (%d)", per, agg)
	}
}

func TestDirectDescriptorFetchesSection(t *testing.T) {
	e := newEnv(t, 2, 1000, 10, func(i int) int32 { return 0 })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			for i := 400; i < 600; i++ {
				n.Space().WriteF64(e.data.Addr(i), float64(-i))
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Direct, Data: e.data,
				Section: rsd.Range1(400, 599), Access: Read, Sched: 2})
			rf := n.Space().ReadFaults
			for i := 400; i < 600; i++ {
				if got := n.Space().ReadF64(e.data.Addr(i)); got != float64(-i) {
					t.Errorf("unit %d = %v", i, got)
					break
				}
			}
			if n.Space().ReadFaults != rf {
				t.Error("direct section reads faulted after Validate")
			}
		}
		n.Barrier(2)
	})
}

func TestReadWriteAllShipsWholePage(t *testing.T) {
	// The pipelined-reduction pattern: with READ&WRITE_ALL, no twins are
	// made and a subsequent requester receives a full-page snapshot.
	e := newEnv(t, 2, 128, 10, func(i int) int32 { return 0 })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Direct, Data: e.data,
				Section: rsd.Range1(0, 127), Access: ReadWriteAll, Sched: 3})
			before := n.TwinsMade
			for i := 0; i < 128; i++ {
				v := n.Space().ReadF64(e.data.Addr(i))
				n.Space().WriteF64(e.data.Addr(i), v*2)
			}
			if n.TwinsMade != before {
				t.Errorf("READ&WRITE_ALL made %d twins", n.TwinsMade-before)
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			for i := 0; i < 128; i++ {
				if got := n.Space().ReadF64(e.data.Addr(i)); got != float64(2*i) {
					t.Errorf("unit %d = %v, want %v", i, got, 2*i)
					break
				}
			}
		}
		n.Barrier(2)
	})
}

func TestMultiDescriptorValidate(t *testing.T) {
	// One Validate call with an INDIRECT read and a DIRECT read&write —
	// the moldyn pattern (Figure 2) — must handle both in one pass.
	e := newEnv(t, 2, 1000, 40, func(i int) int32 { return int32(i * 25 % 1000) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			for i := 0; i < 1000; i += 50 {
				n.Space().WriteF64(e.data.Addr(i), 5)
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(
				Desc{Type: Indirect, Data: e.data, Indir: e.indir,
					Section: rsd.Range1(0, 39), Access: Read, Sched: 1},
				Desc{Type: Direct, Data: e.data,
					Section: rsd.Range1(0, 99), Access: ReadWrite, Sched: 2},
			)
			rf, wf := n.Space().ReadFaults, n.Space().WriteFaults
			for i := 0; i < 40; i++ {
				idx := int(n.Space().ReadI32(e.indir.Addr(i)))
				_ = n.Space().ReadF64(e.data.Addr(idx))
			}
			for i := 0; i < 100; i++ {
				v := n.Space().ReadF64(e.data.Addr(i))
				n.Space().WriteF64(e.data.Addr(i), v+1)
			}
			if n.Space().ReadFaults != rf || n.Space().WriteFaults != wf {
				t.Error("multi-descriptor loop faulted")
			}
		}
		n.Barrier(2)
	})
}

func Test2DIndirectionSection(t *testing.T) {
	// moldyn's interaction_list(2, M): section [0:1, lo:hi] over dims
	// [2, M].
	const m = 30
	e := newEnv(t, 2, 1000, 2*m, func(i int) int32 { return int32((i * 31) % 1000) })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{
				Type: Indirect, Data: e.data, Indir: e.indir,
				Section:   rsd.Section{Dims: []rsd.Dim{{Lo: 0, Hi: 1, Stride: 1}, {Lo: 5, Hi: 14, Stride: 1}}},
				IndirDims: []int{2, m},
				Access:    Read, Sched: 1,
			})
			if rt.ScanEntries != 20 {
				t.Errorf("scanned %d entries, want 20", rt.ScanEntries)
			}
		}
		n.Barrier(1)
	})
}

func TestWriteAllSkipsFetch(t *testing.T) {
	// Pure WRITE_ALL sections are not fetched: no diff traffic even when
	// the pages are invalid.
	e := newEnv(t, 2, 128, 4, func(i int) int32 { return 0 })
	e.c.Run(func(p *sim.Proc) {
		n := e.d.Node(p.ID())
		if p.ID() == 0 {
			for i := 0; i < 128; i++ {
				n.Space().WriteF64(e.data.Addr(i), 1)
			}
		}
		n.Barrier(1)
		if p.ID() == 1 {
			rt := NewRuntime(n)
			rt.Validate(Desc{Type: Direct, Data: e.data,
				Section: rsd.Range1(0, 127), Access: WriteAll, Sched: 1})
			for i := 0; i < 128; i++ {
				n.Space().WriteF64(e.data.Addr(i), float64(i))
			}
		}
		n.Barrier(2)
	})
	if got := e.c.Stats.Categories()[DiffKind].Messages; got != 0 {
		t.Errorf("WRITE_ALL fetched %d messages, want 0", got)
	}
}

func TestAccessTypeStrings(t *testing.T) {
	for a, want := range map[AccessType]string{
		Read: "READ", Write: "WRITE", ReadWrite: "READ&WRITE",
		WriteAll: "WRITE_ALL", ReadWriteAll: "READ&WRITE_ALL",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
	if Direct.String() != "DIRECT" || Indirect.String() != "INDIRECT" {
		t.Error("DescType strings")
	}
}
