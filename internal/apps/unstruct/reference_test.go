package unstruct

import (
	"fmt"
	"slices"
	"testing"
)

// refEdges is buildEdges as a plain append-grown loop, kept as the
// reference the chunked builder must reproduce element for element.
func refEdges(coords [][3]float64, l, radius float64) (edges [][2]int32) {
	nc := max(int(l/radius), 1)
	cell := func(v float64) int { return min(max(int(v/l*float64(nc)), 0), nc-1) }
	cells := make([][]int32, nc*nc*nc)
	for i, c := range coords {
		id := (cell(c[2])*nc+cell(c[1]))*nc + cell(c[0])
		cells[id] = append(cells[id], int32(i))
	}
	r2 := radius * radius
	for i, c := range coords {
		cx, cy, cz := cell(c[0]), cell(c[1]), cell(c[2])
		for dz := -1; dz <= 1; dz++ {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					zx, zy, zz := cz+dz, cy+dy, cx+dx
					if zx < 0 || zx >= nc || zy < 0 || zy >= nc || zz < 0 || zz >= nc {
						continue
					}
					for _, j := range cells[(zx*nc+zy)*nc+zz] {
						if int(j) <= i {
							continue
						}
						d := [3]float64{c[0] - coords[j][0], c[1] - coords[j][1], c[2] - coords[j][2]}
						if d[0]*d[0]+d[1]*d[1]+d[2]*d[2] <= r2 {
							edges = append(edges, [2]int32{int32(i), j})
						}
					}
				}
			}
		}
	}
	return edges
}

// TestEdgesMatchReference pins the exact-size edge search to the
// append-grown reference, for meshes from under one builder chunk
// (8,005 edges at 512 nodes) to several (77,014 at 4,096).
func TestEdgesMatchReference(t *testing.T) {
	for _, nodes := range []int{64, 512, 4096} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			w := Generate(testParams(nodes, 4, 1))
			got := buildEdges(w.Coords, w.L, w.P.Radius)
			want := refEdges(w.Coords, w.L, w.P.Radius)
			if !slices.Equal(got, want) {
				t.Fatalf("%d edges, reference %d", len(got), len(want))
			}
			if len(got) != cap(got) {
				t.Fatalf("len %d != cap %d", len(got), cap(got))
			}
		})
	}
}
