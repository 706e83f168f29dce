// Package bench assembles the paper's evaluation tables (§5): it runs
// the sequential, CHAOS, base-TreadMarks, and optimized-TreadMarks
// backends over the configured workloads, verifies that all backends
// produce bit-identical results, and formats rows exactly like Tables
// 1-3 (execution time, speedup, message count, data volume).
//
// The harness is application-agnostic: workloads are built and run
// through the internal/apps registry, so a new application only needs to
// self-register a factory to get a table. The blank imports below link
// every first-class app into any binary that uses the harness.
package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/sim"

	// Register the first-class applications.
	_ "repro/internal/apps/moldyn"
	_ "repro/internal/apps/nbf"
	_ "repro/internal/apps/spmv"
	_ "repro/internal/apps/taskq"
	_ "repro/internal/apps/tsp"
	_ "repro/internal/apps/unstruct"
)

// Row is one line of a results table.
type Row struct {
	Config   string
	System   string
	TimeSec  float64
	Speedup  float64
	Messages int64
	DataMB   float64
}

// Table is a formatted experiment result.
type Table struct {
	Title string
	Rows  []Row
}

// String renders the table in the paper's layout.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-34s %-14s %10s %8s %10s %10s\n",
		"Configuration", "System", "Time (s)", "Speedup", "Messages", "Data (MB)")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	last := ""
	for _, r := range t.Rows {
		cfg := r.Config
		if cfg == last {
			cfg = ""
		} else {
			last = r.Config
		}
		fmt.Fprintf(&b, "%-34s %-14s %10.2f %8.2f %10d %10.1f\n",
			cfg, r.System, r.TimeSec, r.Speedup, r.Messages, r.DataMB)
	}
	return b.String()
}

// AppResults holds one configuration's verified backend runs for any
// registered application. Config is the decorated row-group heading the
// tables print; Label is the undecorated spec label the scenario
// engine's metric keys are built from.
type AppResults struct {
	App    string
	Label  string
	Config string
	*apps.VariantSet
}

// RunAppCtx builds the named registered application's workload from
// cfg, executes all four backends, and verifies bit-exact agreement.
// Cancellation is checked before each of the four backend executions
// (apps.RunAll), so an aborted run never returns a partially-verified
// result.
func RunAppCtx(ctx context.Context, name string, cfg apps.Config, label string) (*AppResults, error) {
	w, err := apps.New(name, cfg)
	if err != nil {
		return nil, err
	}
	vs, err := apps.RunAll(ctx, w)
	if err != nil {
		return nil, err
	}
	return &AppResults{
		App:        name,
		Label:      label,
		Config:     fmt.Sprintf("%s (seq = %.1f s)", label, vs.Seq.TimeSec),
		VariantSet: vs,
	}, nil
}

// Metrics flattens verified results into the named metric values the
// scenario engine asserts bands on and byte-diffs across runs. Keys are
// "<app>/<label>/<variant>/<field>" with variant one of seq, chaos,
// tmk, tmk-opt (the registry's four slots — for the lock workloads the
// chaos slot is the message-passing program) and field one of time_s,
// speedup, messages, data_mb, peak_kb plus every Detail entry the
// backend recorded (inspector_s, scan_s, lock_*, per-category traffic).
func Metrics(all []*AppResults) map[string]float64 {
	out := map[string]float64{}
	for _, res := range all {
		for slot, r := range map[string]*apps.Result{
			"seq": res.Seq, "chaos": res.Chaos, "tmk": res.Base, "tmk-opt": res.Opt,
		} {
			prefix := res.App + "/" + res.Label + "/" + slot + "/"
			out[prefix+"time_s"] = r.TimeSec
			out[prefix+"speedup"] = r.Speedup
			out[prefix+"messages"] = float64(r.Messages)
			out[prefix+"data_mb"] = r.DataMB
			out[prefix+"peak_kb"] = r.MaxPeakMB() * 1e3
			for k, v := range r.Detail {
				out[prefix+k] = v
			}
		}
	}
	return out
}

// appTableView assembles a table from already-run results. withSeq
// additionally emits the sequential row (Tables 1 and 2 fold it into
// the configuration label; Table 3 prints it).
func appTableView(title string, all []*AppResults, withSeq bool) *Table {
	t := &Table{Title: title}
	for _, res := range all {
		t.Rows = append(t.Rows, rowsOf(res, withSeq)...)
	}
	return t
}

// rowsOf converts one configuration's results into table rows in the
// paper's order (CHAOS, Tmk base, Tmk optimized), optionally preceded
// by the sequential reference.
func rowsOf(res *AppResults, withSeq bool) []Row {
	mk := func(sys string, r *apps.Result) Row { return rowOf(res.Config, sys, r) }
	var rows []Row
	if withSeq {
		rows = append(rows, mk("Sequential", res.Seq))
	}
	return append(rows,
		mk("CHAOS", res.Chaos), mk("Tmk base", res.Base), mk("Tmk optimized", res.Opt))
}

// rowOf is one backend's common columns under a configuration heading.
func rowOf(config, sys string, r *apps.Result) Row {
	return Row{Config: config, System: sys, TimeSec: r.TimeSec, Speedup: r.Speedup,
		Messages: r.Messages, DataMB: r.DataMB}
}

// LockRow is one line of the lock-workload table: the common columns
// plus the aggregated synchronization cell of the measured window.
type LockRow struct {
	Row
	Locks sim.LockStat
}

// LockTable is the formatted lock-workload experiment result
// (Table 4).
type LockTable struct {
	Title string
	Rows  []LockRow
}

// String renders the table: the common columns of Tables 1-3 plus the
// lock columns (acquire count, simulated wait and hold seconds, and the
// write-notice kilobytes shipped on lock grants).
func (t *LockTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-30s %-13s %9s %8s %9s %9s %8s %8s %8s %10s\n",
		"Configuration", "System", "Time (s)", "Speedup", "Messages", "Data (MB)",
		"Lock acq", "Wait (s)", "Hold (s)", "Grant (KB)")
	b.WriteString(strings.Repeat("-", 122) + "\n")
	last := ""
	for _, r := range t.Rows {
		cfg := r.Config
		if cfg == last {
			cfg = ""
		} else {
			last = r.Config
		}
		fmt.Fprintf(&b, "%-30s %-13s %9.3f %8.2f %9d %9.2f %8d %8.3f %8.3f %10.1f\n",
			cfg, r.System, r.TimeSec, r.Speedup, r.Messages, r.DataMB,
			r.Locks.Acquires, r.Locks.WaitUS/1e6, r.Locks.HoldUS/1e6,
			float64(r.Locks.GrantBytes)/1e3)
	}
	return b.String()
}

// lockRowsOf converts one configuration's results into lock-table rows.
// The Chaos slot of the lock workloads runs the message-passing
// master/worker program, and the Opt slot the batched-claim TreadMarks
// variant; the labels say so.
func lockRowsOf(res *AppResults) []LockRow {
	mk := func(sys string, r *apps.Result) LockRow {
		return LockRow{
			Row:   rowOf(res.Config, sys, r),
			Locks: r.LockTotal(),
		}
	}
	return []LockRow{
		mk("Sequential", res.Seq), mk("PVM m/w", res.Chaos),
		mk("Tmk base", res.Base), mk("Tmk batched", res.Opt),
	}
}

// lockTableView assembles the lock table from already-run results.
func lockTableView(title string, all []*AppResults) *LockTable {
	t := &LockTable{Title: title}
	for _, res := range all {
		t.Rows = append(t.Rows, lockRowsOf(res)...)
	}
	return t
}
