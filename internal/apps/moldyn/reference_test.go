package moldyn

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
)

// refBuildPairs is the paper-era exhaustive scan as a plain
// append-grown loop, kept as the reference BuildPairs(p, l, x, 1, 0)
// must reproduce element for element.
func refBuildPairs(p *Params, l float64, x []float64) (pairs [][2]int32, checks int64) {
	rc2 := p.Cutoff * p.Cutoff
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			checks++
			if refWithin(x, i, j, l, rc2) {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return pairs, checks
}

// refBuildPairsStrided is BuildPairs as a plain append-grown loop.
func refBuildPairsStrided(p *Params, l float64, x []float64, m, eq int) (pairs [][2]int32, checks int64) {
	rc2 := p.Cutoff * p.Cutoff
	for i := eq; i < p.N; i += m {
		for j := i + 1; j < p.N; j++ {
			checks++
			if refWithin(x, i, j, l, rc2) {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	return pairs, checks
}

func refWithin(x []float64, i, j int, l, rc2 float64) bool {
	dx := apps.MinImage(x[3*i]-x[3*j], l)
	dy := apps.MinImage(x[3*i+1]-x[3*j+1], l)
	dz := apps.MinImage(x[3*i+2]-x[3*j+2], l)
	return dx*dx+dy*dy+dz*dz <= rc2
}

// TestBuildPairsMatchesReference pins the exact-size builder to the
// append-grown references: the same pairs in the same order, the same
// check counts, and a result whose capacity is its length — for the
// exhaustive scan and for several strided splits, with lists spanning
// several builder chunks.
func TestBuildPairsMatchesReference(t *testing.T) {
	check := func(t *testing.T, got, want [][2]int32, gotChecks, wantChecks int64) {
		t.Helper()
		if !slices.Equal(got, want) || gotChecks != wantChecks {
			t.Fatalf("%d pairs (%d checks), reference %d (%d)", len(got), gotChecks, len(want), wantChecks)
		}
		if len(got) != cap(got) {
			t.Fatalf("len %d != cap %d", len(got), cap(got))
		}
	}
	for _, n := range []int{2000, 600} {
		p := testParams(n, 4, 1, 0)
		w := Generate(p)
		if n == 600 {
			p = w.P // the paper's cutoff fraction: about 40% of all pairs
		}
		t.Run(fmt.Sprintf("n%d-exhaustive", n), func(t *testing.T) {
			got, gc := BuildPairs(&p, w.L, w.X0, 1, 0)
			want, wc := refBuildPairs(&p, w.L, w.X0)
			if len(want) < 2*8192 {
				t.Fatalf("only %d pairs: the case spans no chunk boundary", len(want))
			}
			check(t, got, want, gc, wc)
		})
		for _, m := range []int{1, 3, 8} {
			for eq := 0; eq < m; eq += 2 {
				t.Run(fmt.Sprintf("n%d-strided%d/%d", n, eq, m), func(t *testing.T) {
					got, gc := BuildPairs(&p, w.L, w.X0, m, eq)
					want, wc := refBuildPairsStrided(&p, w.L, w.X0, m, eq)
					check(t, got, want, gc, wc)
				})
			}
		}
	}
}
