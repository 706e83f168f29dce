// Table 5 — the simulated memory-capacity table (DESIGN.md §9): what
// each system's data structures occupy per processor, and which
// translation-table organization the capacity policy selected for the
// CHAOS runs under a per-processor table budget. Where Tables 1-4
// report traffic and time, this table reports the third resource the
// paper's moldyn anecdote is about: the memory that *forces* protocol
// choices.
package bench

import (
	"cmp"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/chaos"
	"repro/internal/tmk"
)

// memLayout is Table 5: per-processor footprint numbers (KB, max over
// processors of the ledger peaks) — the total high-water mark, the DSM
// page copies, the app-level arrays (chaos data/ghosts/replicas/pairs,
// tmk private), translation-table storage incl. cached pages, the
// schedules plus the transient inspector hash, and tmk's twins, diffs
// and notice board — then the table organization the run used.
var memLayout = layout{cfgW: 30, sysW: 13, rule: 122, cols: []column{
	{"Peak (KB)", " %10s", " %10.1f", func(r *apps.Result) any { return r.MaxPeakMB() * 1e3 }},
	{"Shared", " %10s", " %10.1f", func(r *apps.Result) any { return catPeakKB(r, tmk.MemCatPages) }},
	{"Private", " %10s", " %10.1f", func(r *apps.Result) any {
		return catPeakKB(r, apps.MemCatData, apps.MemCatReplica, apps.MemCatPairs, apps.MemCatPrivate)
	}},
	{"Table", " %10s", " %10.1f", func(r *apps.Result) any { return catPeakKB(r, chaos.MemCatTable) }},
	{"Sched", " %10s", " %10.1f", func(r *apps.Result) any { return catPeakKB(r, chaos.MemCatSched, chaos.MemCatInspector) }},
	{"Consist", " %11s", " %11.1f", func(r *apps.Result) any {
		return catPeakKB(r, tmk.MemCatTwins, tmk.MemCatDiffs, tmk.MemCatBoard)
	}},
	{"Table org", "  %s", "  %s", func(r *apps.Result) any { return cmp.Or(r.TableOrg, "-") }},
}}

// catPeakKB returns the largest per-processor peak of the listed ledger
// categories, summed over categories (an upper bound when they do not
// peak together; each category's number is itself exact).
func catPeakKB(r *apps.Result, cats ...string) float64 {
	var total int64
	for _, c := range cats {
		total += r.MemCat(c).PeakBytes
	}
	return float64(total) / 1e3
}

// ---- The moldyn anecdote ----------------------------------------------

// anecdoteParams is the configuration of the §9 anecdote: a moldyn
// whose translation table cannot be replicated under the paper-scale
// per-processor budget, with enough interaction-list rebuilds that the
// forced distributed table's inspector traffic lands in the 85 MB /
// 878-message regime. The fragmentation threshold is raised so
// messages are counted at the granularity the paper counted them
// (CHAOS's bulk inspector exchanges, not MPL-level fragments).
func anecdoteParams() moldyn.Params {
	p := moldyn.DefaultParams(4096, 8)
	p.Steps = 15
	p.UpdateEvery = 2 // 7 rebuilds -> 8 inspector executions
	p.CutoffFrac = 0.2209
	p.MaxMsgB = 1 << 20
	return p
}
