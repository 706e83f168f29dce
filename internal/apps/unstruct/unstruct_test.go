package unstruct

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
)

func testParams(nodes, procs, steps int) Params {
	p := DefaultParams(nodes, procs)
	p.Steps = steps
	p.PageSize = 1024
	return p
}

func TestMeshGeneration(t *testing.T) {
	w := Generate(testParams(512, 4, 2))
	if len(w.Sorted) == 0 {
		t.Fatal("no edges")
	}
	seen := map[[2]int32]bool{}
	for _, e := range w.Sorted {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not ordered", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
		if int(e[1]) >= w.P.Nodes {
			t.Fatalf("edge %v out of range", e)
		}
	}
	// Degrees must be irregular (that is the point of the app).
	deg := make([]int, w.P.Nodes)
	for _, e := range w.Sorted {
		deg[e[0]]++
		deg[e[1]]++
	}
	minD, maxD := deg[0], deg[0]
	for _, d := range deg {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD == minD {
		t.Fatal("mesh is regular")
	}
}

func TestMeshDeterministic(t *testing.T) {
	a := Generate(testParams(256, 2, 1))
	b := Generate(testParams(256, 2, 1))
	if len(a.Sorted) != len(b.Sorted) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Sorted {
		if a.Sorted[i] != b.Sorted[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func runAll(t *testing.T, p Params) map[string]*apps.Result {
	t.Helper()
	w := Generate(p)
	seq := RunSequential(w)
	base := RunTmk(w, BuildImage(w), TmkOptions{})
	opt := RunTmk(w, BuildImage(w), TmkOptions{Optimized: true})
	ch := RunChaos(w)
	for _, r := range []*apps.Result{base, opt, ch} {
		if err := apps.VerifyEqual(seq, r); err != nil {
			t.Fatalf("%s diverges: %v", r.System, err)
		}
	}
	return map[string]*apps.Result{"seq": seq, "tmk": base, "tmk-opt": opt, "chaos": ch}
}

func TestAllBackendsAgree(t *testing.T) {
	runAll(t, testParams(512, 4, 3))
}

func TestAllBackendsAgreeEightProcs(t *testing.T) {
	runAll(t, testParams(768, 8, 3))
}

func TestOptimizedBeatsBase(t *testing.T) {
	rs := runAll(t, testParams(1024, 4, 4))
	if rs["tmk-opt"].Messages >= rs["tmk"].Messages {
		t.Errorf("opt msgs %d not below base %d", rs["tmk-opt"].Messages, rs["tmk"].Messages)
	}
	if rs["tmk-opt"].TimeSec >= rs["tmk"].TimeSec {
		t.Errorf("opt %.4fs not faster than base %.4fs", rs["tmk-opt"].TimeSec, rs["tmk"].TimeSec)
	}
}

func TestStaticMeshValidatesOnce(t *testing.T) {
	// The edge list never changes: after the warmup step the optimized
	// runtime must not rescan it, so scan-heavy traffic must not grow
	// with steps. Compare two run lengths.
	ws, wl := Generate(testParams(512, 4, 2)), Generate(testParams(512, 4, 8))
	short := RunTmk(ws, BuildImage(ws), TmkOptions{Optimized: true})
	long := RunTmk(wl, BuildImage(wl), TmkOptions{Optimized: true})
	perStepShort := float64(short.Messages) / 2
	perStepLong := float64(long.Messages) / 8
	// Steady-state per-step traffic should be comparable (within 2x),
	// not dominated by re-scans.
	if perStepLong > 2*perStepShort {
		t.Errorf("per-step traffic grows: %.0f short vs %.0f long", perStepShort, perStepLong)
	}
}

func TestInspectorReportedOnce(t *testing.T) {
	r := RunChaos(Generate(testParams(512, 4, 3)))
	if r.Detail["inspector_s"] <= 0 {
		t.Fatal("inspector time missing")
	}
}

func TestPartitionEdgesIsStableSortByOwner(t *testing.T) {
	// Edges grouped by the owner of their first endpoint, original order
	// kept within a group — the layout every backend's loop bounds and
	// the goldens depend on.
	w := Generate(testParams(600, 5, 1))
	part := &chaos.Partition{NProcs: 5, Owner: make([]int, w.P.Nodes)}
	for g := range part.Owner {
		part.Owner[g] = (g * 7) % 4 // owner 4 gets no edges
	}
	edges := buildEdges(w.Coords, w.L, w.P.Radius)
	want := append([][2]int32(nil), edges...)
	sort.SliceStable(want, func(i, j int) bool { return part.Owner[want[i][0]] < part.Owner[want[j][0]] })

	sorted, starts := chaos.PartitionPairs(edges, part)
	if !reflect.DeepEqual(sorted, want) {
		t.Fatal("edges are not in stable owner order")
	}
	if len(starts) != part.NProcs+1 || starts[0] != 0 || starts[part.NProcs] != len(edges) {
		t.Fatalf("starts = %v", starts)
	}
	for p := 0; p < part.NProcs; p++ {
		for _, e := range sorted[starts[p]:starts[p+1]] {
			if part.Owner[e[0]] != p {
				t.Fatalf("edge %v in processor %d's range, owner %d", e, p, part.Owner[e[0]])
			}
		}
	}
}

// TestBackendsLeaveWorkloadUntouched: the mesh, its partition and the
// owner-sorted edges are shared by every backend and read-only. Run all
// four backends on one Workload, concurrently so the race detector sees
// any write, then compare with a fresh Generate.
func TestBackendsLeaveWorkloadUntouched(t *testing.T) {
	p := testParams(512, 4, 3)
	w := Generate(p)
	var wg sync.WaitGroup
	for _, run := range []func() *apps.Result{
		func() *apps.Result { return RunSequential(w) },
		func() *apps.Result { return RunChaos(w) },
		func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{}) },
		func() *apps.Result { return RunTmk(w, BuildImage(w), TmkOptions{Optimized: true}) },
	} {
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	wg.Wait()
	if fresh := Generate(p); !reflect.DeepEqual(w, fresh) {
		t.Error("Workload changed while the backends ran")
	}
}
