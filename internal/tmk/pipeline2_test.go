package tmk

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// Mimics moldyn more closely: an x array is read (fault-triggering)
// before the pipeline, and the number of molecules doesn't divide the
// page size evenly.
func TestPipelineWithPriorReads(t *testing.T) {
	const np = 2
	const n = 192
	d, addr := harness(t, np, n+256) // forces at addr, "x" at addr+8*n
	xBase := addr + vm.Addr(8*n)
	lfs := make([][]float64, np)
	for p := 0; p < np; p++ {
		lfs[p] = make([]float64, n)
		for j := range lfs[p] {
			lfs[p][j] = float64((p+1)*1000 + j)
		}
	}
	blk := n / np
	d.cluster.Run(func(p *sim.Proc) {
		me := p.ID()
		nd := d.Node(me)
		sp := nd.Space()
		lf := lfs[me]
		for step := 0; step < 2; step++ {
			// "force loop": read x (all of it).
			for j := 0; j < 256; j++ {
				_ = sp.ReadF64(xBase + vm.Addr(8*j))
			}
			for s := 0; s < np; s++ {
				b := (me + s) % np
				lo, hi := b*blk, (b+1)*blk
				if s == 0 {
					for j := lo; j < hi; j++ {
						sp.WriteF64(addr+vm.Addr(8*j), lf[j])
					}
				} else {
					for j := lo; j < hi; j++ {
						v := sp.ReadF64(addr + vm.Addr(8*j))
						sp.WriteF64(addr+vm.Addr(8*j), v+lf[j])
					}
				}
				nd.Barrier(60 + s)
			}
			// "integrate": read forces of own block, write x own block.
			lo, hi := me*blk, (me+1)*blk
			for j := lo; j < hi; j++ {
				v := sp.ReadF64(addr + vm.Addr(8*j))
				sp.WriteF64(xBase+vm.Addr(8*(j%256)), v*0+float64(step))
			}
			nd.Barrier(70)
		}
	})
	s0 := d.Node(0).Space()
	for j := 0; j < n; j++ {
		want := 0.0
		for p := 0; p < np; p++ {
			want += lfs[p][j]
		}
		if got := s0.ReadF64(addr + vm.Addr(8*j)); got != want {
			t.Fatalf("elem %d = %v, want %v", j, got, want)
		}
	}
}
