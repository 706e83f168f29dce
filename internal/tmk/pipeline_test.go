package tmk

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// TestPipelinedReduction mimics the moldyn/nbf force-reduction pattern:
// each proc holds a private contribution vector lf; in stage s proc p
// updates block (p+s)%P of the shared array (overwrite at s=0, add
// after), with barriers between stages. The final shared array must be
// the elementwise sum of all contributions.
func TestPipelinedReduction(t *testing.T) {
	const np = 2
	const n = 192 // f64 elements; 1024B pages -> 1.5 pages per block
	d, addr := harness(t, np, n)
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
			nd.Barrier(50 + s)
		}
	})
	// Read back through node 0.
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
