package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/mem"
	"repro/internal/raceflag"
)

// canned builds a canned experiment's request through Request, with an
// optional table_budget_kb sweep; it panics on a rejected request.
func canned(name string, params map[string]int, budgetSweepKB ...int) RunRequest {
	req, err := Request(name, params)
	if err != nil {
		panic(err)
	}
	req.BudgetSweepKB = budgetSweepKB
	return req
}

// TestCanonicalEncodingStable checks structurally-equal requests built
// by different code paths share one encoding and one key, and that the
// encoding carries the version header.
func TestCanonicalEncodingStable(t *testing.T) {
	a := canned("table1", map[string]int{"n": 512, "procs": 8, "steps": 10})
	b := canned("table1", map[string]int{"n": 512, "procs": 8, "steps": 10})
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Errorf("equal requests encode differently:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	if a.Key() != b.Key() {
		t.Error("equal requests have different keys")
	}
	if !strings.HasPrefix(string(a.Canonical()), "runrequest/v1\n") {
		t.Errorf("encoding missing version header:\n%s", a.Canonical())
	}
}

// TestCanonicalEncodingDiverges checks every semantic field moves the
// content address.
func TestCanonicalEncodingDiverges(t *testing.T) {
	base := canned("table1", map[string]int{"n": 512, "procs": 8, "steps": 10})
	variants := map[string]RunRequest{
		"different param": canned("table1", map[string]int{"n": 1024, "procs": 8, "steps": 10}),
		"different table": canned("table2", map[string]int{"scale": 2, "procs": 8, "steps": 4, "partners": 40}),
		"budget axis":     canned("memory", map[string]int{"n": 512, "procs": 8}, 48, 16),
		"app run":         {Experiment: "app", App: "moldyn", N: 512, Procs: []int{8}},
	}
	for name, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("%s shares the base request's key", name)
		}
	}
}

// TestPresentationExcludedFromKey checks the Trace flag — a side
// effect of the run, not a different run — does not fragment the cache.
func TestPresentationExcludedFromKey(t *testing.T) {
	plain := canned("table1", map[string]int{"n": 512, "procs": 8, "steps": 10})
	traced := plain
	traced.Trace = true
	if plain.Key() != traced.Key() {
		t.Error("the Trace flag changed the content address")
	}
}

// TestRunCanceledContext checks cancellation aborts before any
// simulation work.
func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, canned("table1", map[string]int{"n": 64, "procs": 2, "steps": 2})); err != context.Canceled {
		t.Errorf("Run on canceled context = %v, want context.Canceled", err)
	}
}

// TestKeyAllocs pins keying at zero allocations for every request
// shape of the canonical grammar: the encoding is appended into a
// stack buffer with strconv, and the service keys every submission and
// every disk read.
func TestKeyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	for name, req := range codecRequests() {
		if n := testing.AllocsPerRun(100, func() { req.Key() }); n != 0 {
			t.Errorf("%s: Key() allocates %v times, want 0", name, n)
		}
	}
}

// TestPlanRunsOncePerPlan checks the memory experiment's plan-and-run
// helper runs CHAOS once per distinct plan, not once per budget, and
// that every row keeps its own budget, the plan that budget chose, and
// the numbers of that plan's run.
func TestPlanRunsOncePerPlan(t *testing.T) {
	const n, procs, work = 4096, 8, 2
	repl, seg := mem.ReplicatedBytes(n), mem.SegmentBytes(n, procs)
	paged := seg + work*mem.TablePageBytes
	// Two replicated, two paged(cache=2), one paged(cache=3), two
	// distributed: four plans for seven budgets.
	budgets := []int64{repl + 8<<10, repl, paged, paged + 100, paged + mem.TablePageBytes, seg, 0}
	timeOf := func(plan mem.TablePlan) float64 { return float64(1 + 10*int(plan.Kind) + plan.CachePages) }
	calls := map[mem.TablePlan]int{}
	rows, err := planRuns(context.Background(), budgets, n, procs, work, func(plan mem.TablePlan) *apps.Result {
		calls[plan]++
		return &apps.Result{TimeSec: timeOf(plan)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("budgets planned %d distinct plans, want 4: %v", len(calls), calls)
	}
	for plan, c := range calls {
		if c != 1 {
			t.Errorf("plan %v ran %d times, want once", plan, c)
		}
	}
	if len(rows) != len(budgets) {
		t.Fatalf("%d rows for %d budgets", len(rows), len(budgets))
	}
	for i, row := range rows {
		plan := mem.PlanTable(budgets[i], n, procs, work)
		if row.BudgetKB != budgets[i]>>10 || row.Plan != plan || row.TimeSec != timeOf(plan) {
			t.Errorf("row %d = %+v, want budget %d KB, plan %v and its run", i, row, budgets[i]>>10, plan)
		}
	}
}
