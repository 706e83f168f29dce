// Package mem is the capacity-policy layer over the simulated-memory
// accounting (sim.MemStats): given a per-processor memory budget, it
// decides which translation-table organization a CHAOS run can afford —
// the decision the paper reports being *forced* into for moldyn, whose
// table could not be replicated and whose distributed-table inspector
// then exchanged 85 MB in 878 messages (DESIGN.md §9).
//
// The budget here is table slack: the per-processor bytes left for
// translation-table storage once the application's arrays, ghost
// regions, and schedules are resident (those are charged to the ledger
// by the runtimes themselves and reported by Table 5; the policy
// ranks only the part the runtime gets to choose). Like every size in
// this reproduction, paper-flavored budgets are scaled alongside the
// scaled-down problem sizes.
package mem

import (
	"fmt"

	"repro/internal/chaos"
)

// TablePageBytes is the storage of one full translation-table page.
const TablePageBytes = chaos.TablePageEntries * chaos.TableEntryBytes

// ReplicatedBytes returns the per-processor storage of a fully
// replicated n-entry table.
func ReplicatedBytes(n int) int64 {
	return int64(n) * chaos.TableEntryBytes
}

// SegmentBytes returns the largest per-processor home segment of an
// n-entry table block-distributed over nprocs (the storage floor: every
// organization holds at least its own segment).
func SegmentBytes(n, nprocs int) int64 {
	sz := (n + nprocs - 1) / nprocs
	return int64(sz) * chaos.TableEntryBytes
}

// TablePages returns the number of table pages covering n entries —
// the working set of a reference stream that touches the whole table
// (moldyn's does: the cutoff sphere spans a large fraction of the box,
// so every processor's pairs reach everywhere).
func TablePages(n int) int {
	return (n + chaos.TablePageEntries - 1) / chaos.TablePageEntries
}

// TablePlan is the policy's decision: the organization to run and, for
// Paged, the per-processor cached-page bound to hand to
// chaos.TransTable.CachePages.
type TablePlan struct {
	Kind       chaos.TableKind
	CachePages int
}

func (p TablePlan) String() string {
	if p.Kind == chaos.Paged {
		return fmt.Sprintf("paged(cache=%d)", p.CachePages)
	}
	return p.Kind.String()
}

// PlanTable picks the cheapest-traffic organization whose per-processor
// table storage fits budgetBytes, given that a processor's inspector
// touches workPages distinct table pages per run:
//
//   - Replicated if the full table fits — lookups never communicate.
//   - Paged if the home segment plus the working set fits — only cold
//     pages communicate, and the cache bound is set to the slack so the
//     charged footprint can never exceed the budget.
//   - Distributed otherwise. A cache smaller than the working set would
//     thrash: every inspector run re-ships whole evicted pages, which
//     costs more wire bytes than per-entry requests, so under that much
//     pressure the policy degrades straight to the segment-only
//     organization — the paper's moldyn regime.
//
// The home segment is the storage floor; a budget below it still
// returns Distributed (there is nothing smaller to fall back to).
func PlanTable(budgetBytes int64, n, nprocs, workPages int) TablePlan {
	if ReplicatedBytes(n) <= budgetBytes {
		return TablePlan{Kind: chaos.Replicated}
	}
	seg := SegmentBytes(n, nprocs)
	if slack := budgetBytes - seg; slack >= int64(workPages)*TablePageBytes && workPages > 0 {
		return TablePlan{Kind: chaos.Paged, CachePages: int(slack / TablePageBytes)}
	}
	return TablePlan{Kind: chaos.Distributed}
}

// PaperTableBudget is the per-processor table budget of the moldyn
// anecdote: enough for the home segment of the anecdote-scale table but
// nowhere near its full replica or working set, so PlanTable is forced
// off the replicated table exactly as the paper's machine forced the
// measured program. (The paper's SP2 nodes ran out of real memory at
// 16384 molecules; our sizes — and with them this budget — are scaled
// down together, per DESIGN.md §2's calibration-by-ratio rule.)
const PaperTableBudget = 16 << 10
