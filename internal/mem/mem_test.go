package mem

import (
	"testing"

	"repro/internal/chaos"
)

func TestPlanTableCrossover(t *testing.T) {
	const n, nprocs = 8192, 8 // 64 KB replicated, 8 KB segment, 8 pages
	work := TablePages(n)     // whole-table working set (the moldyn shape)

	cases := []struct {
		budget int64
		want   chaos.TableKind
	}{
		{ReplicatedBytes(n), chaos.Replicated},     // exactly fits
		{ReplicatedBytes(n) + 1, chaos.Replicated}, // roomy
		{ReplicatedBytes(n) - 1, chaos.Distributed},
		{SegmentBytes(n, nprocs), chaos.Distributed},
		{0, chaos.Distributed}, // below the floor: nothing smaller exists
	}
	for _, c := range cases {
		if got := PlanTable(c.budget, n, nprocs, work); got.Kind != c.want {
			t.Errorf("PlanTable(%d, whole-table working set) = %v, want %v", c.budget, got, c.want)
		}
	}
}

// TestPlanTablePagedWindow: with a localized working set (spmv's banded
// structure), mid-range budgets select Paged with a cache bound that
// keeps the charged footprint within budget.
func TestPlanTablePagedWindow(t *testing.T) {
	const n, nprocs = 8192, 8
	work := 2 // the stream touches ~2 table pages per proc

	budget := SegmentBytes(n, nprocs) + int64(3)*TablePageBytes
	plan := PlanTable(budget, n, nprocs, work)
	if plan.Kind != chaos.Paged {
		t.Fatalf("mid budget: got %v, want paged", plan)
	}
	if plan.CachePages != 3 {
		t.Errorf("cache bound = %d, want 3 (slack/TablePageBytes)", plan.CachePages)
	}
	if SegmentBytes(n, nprocs)+int64(plan.CachePages)*TablePageBytes > budget {
		t.Error("plan can exceed its budget")
	}

	// One page short of the working set: degrade to Distributed, never
	// a thrashing cache.
	tight := SegmentBytes(n, nprocs) + int64(work)*TablePageBytes - 1
	if got := PlanTable(tight, n, nprocs, work); got.Kind != chaos.Distributed {
		t.Errorf("sub-working-set budget: got %v, want distributed", got)
	}
}

// TestPlanMonotone: shrinking the budget never moves the plan toward a
// larger-storage organization.
func TestPlanMonotone(t *testing.T) {
	const n, nprocs = 4096, 8
	storage := func(p TablePlan) int64 {
		switch p.Kind {
		case chaos.Replicated:
			return ReplicatedBytes(n)
		case chaos.Paged:
			return SegmentBytes(n, nprocs) + int64(p.CachePages)*TablePageBytes
		default:
			return SegmentBytes(n, nprocs)
		}
	}
	prev := int64(1 << 62)
	for b := int64(64 << 10); b >= 0; b -= 512 {
		s := storage(PlanTable(b, n, nprocs, 2))
		if s > prev {
			t.Fatalf("budget %d: storage %d grew past %d", b, s, prev)
		}
		prev = s
	}
}

func TestPaperBudgetForcesMoldynOffReplicated(t *testing.T) {
	// The anecdote configuration: 4096 molecules, 8 processors,
	// whole-table working set (see the memory experiment in
	// internal/bench; scenarios/memory.yaml asserts its plan).
	plan := PlanTable(PaperTableBudget, 4096, 8, TablePages(4096))
	if plan.Kind != chaos.Distributed {
		t.Fatalf("paper budget plan = %v, want distributed", plan)
	}
	if ReplicatedBytes(4096) <= PaperTableBudget {
		t.Error("paper budget admits the replicated table; the anecdote is vacuous")
	}
	if SegmentBytes(4096, 8) > PaperTableBudget {
		t.Error("paper budget cannot even hold the home segment")
	}
}
