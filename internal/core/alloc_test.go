package core

import (
	"testing"

	"repro/internal/rsd"
	"repro/internal/sim"
	"repro/internal/tmk"
)

// validateWorld is the input of the perf probes core.validate_*: on a
// two-processor machine with 4 KB pages, an indirection array of n
// entries with values i*7 mod n into a data array of n float64 units,
// plus a second data array for direct descriptors. Validate runs outside
// Cluster.Run, on processor 0, as the probes do.
type validateWorld struct {
	rt       *Runtime
	data, y  *Array
	indir    *Array
	indirect Desc
}

func newValidateWorld(tb testing.TB, n int) *validateWorld {
	tb.Helper()
	d := tmk.New(sim.NewCluster(sim.DefaultConfig(2)), 4096, 1<<22+24*n)
	w := &validateWorld{
		data:  &Array{Name: "d", Base: d.Alloc(8 * n), ElemSize: 8, Len: n},
		y:     &Array{Name: "y", Base: d.Alloc(8 * n), ElemSize: 8, Len: n},
		indir: &Array{Name: "i", Base: d.Alloc(4 * (n + 1)), ElemSize: 4, Len: n + 1},
	}
	s0 := d.Node(0).Space()
	for i := 0; i <= n; i++ {
		s0.WriteI32(w.indir.Addr(i), int32(i*7%n))
	}
	d.SealInit()
	w.rt = NewRuntime(d.Node(0))
	w.indirect = Desc{Type: Indirect, Data: w.data, Indir: w.indir,
		Section: rsd.Range1(0, n-1), Access: Read, Sched: 1}
	return w
}

// forceRecompute flags the indirect schedule as modified, the way a
// write to its indirection array does.
func (w *validateWorld) forceRecompute() {
	w.rt.markModified(w.rt.sched(w.indirect.Sched).watch[0])
}

func BenchmarkValidateRevalidate(b *testing.B) {
	w := newValidateWorld(b, 4096)
	w.rt.Validate(w.indirect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.rt.Validate(w.indirect)
	}
}

func BenchmarkValidateRecompute(b *testing.B) {
	w := newValidateWorld(b, 4096)
	w.rt.Validate(w.indirect)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.forceRecompute()
		w.rt.Validate(w.indirect)
	}
}

// TestValidateSteadyStateAllocs pins Validate's host allocations: a call
// that only revalidates allocates nothing once its scratch has grown,
// and a recomputation allocates a constant however long the scanned
// section is.
func TestValidateSteadyStateAllocs(t *testing.T) {
	w := newValidateWorld(t, 4096)
	descs := []Desc{
		w.indirect,
		{Type: Direct, Data: w.data, Section: rsd.Range1(100, 3000), Access: ReadWrite, Sched: 2},
		{Type: Direct, Data: w.y, Section: rsd.Range1(10, 4000), Access: WriteAll, Sched: 3},
	}
	w.rt.Validate(descs...)
	if got := testing.AllocsPerRun(100, func() { w.rt.Validate(descs...) }); got != 0 {
		t.Errorf("revalidating Validate allocated %v times per call, want 0", got)
	}

	var perSize []float64
	for _, n := range []int{1 << 10, 1 << 16} {
		w := newValidateWorld(t, n)
		// Two sections of the same length: alternating them recomputes
		// the schedule on every call.
		a, b := w.indirect, w.indirect
		b.Section = rsd.Range1(1, n)
		w.rt.Validate(a)
		w.rt.Validate(b)
		recomputes := w.rt.Recomputes
		got := testing.AllocsPerRun(20, func() {
			w.rt.Validate(a)
			w.rt.Validate(b)
		}) / 2
		if w.rt.Recomputes-recomputes != 2*21 {
			t.Fatalf("%d entries: %d recomputes, want %d", n, w.rt.Recomputes-recomputes, 2*21)
		}
		t.Logf("%d entries: %v allocations per recomputing call", n, got)
		perSize = append(perSize, got)
	}
	if perSize[0] != perSize[1] || perSize[1] > 0 {
		t.Errorf("recomputing Validate allocated %v times per call at 1K entries and %v at 64K, want 0 at both",
			perSize[0], perSize[1])
	}
}
