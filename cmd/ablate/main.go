// Command ablate runs the ablation sweeps of DESIGN.md §4 (claims C2,
// C3 and ablations A1-A5) plus the memory-capacity sweep of §9: the
// effect of indirection-array update frequency, page size / false
// sharing, message aggregation, WRITE_ALL reduction shipping, processor
// count, incremental page-set recomputation, translation-table
// organization, and the per-processor memory budget that *forces* the
// organization (the moldyn 85 MB anecdote, asserted).
//
//	go run ./cmd/ablate -sweep=update|pagesize|aggregation|writeall|procs|incremental|ttable|memory
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/apps"
	"repro/internal/apps/moldyn"
	"repro/internal/apps/nbf"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rsd"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tmk"
)

func main() {
	sweep := flag.String("sweep", "update", "which ablation to run")
	n := flag.Int("n", 1024, "moldyn molecules / nbf scale base")
	procs := flag.Int("procs", 8, "processors")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *sweep, *n, *procs); err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
	}
}

// run dispatches one sweep onto w (the golden tests render through it).
func run(ctx context.Context, w io.Writer, sweep string, n, procs int) error {
	switch sweep {
	case "update":
		sweepUpdate(w, n, procs)
	case "pagesize":
		sweepPageSize(w, n, procs)
	case "aggregation":
		sweepAggregation(w, n, procs)
	case "writeall":
		sweepWriteAll(w, n, procs)
	case "procs":
		sweepProcs(w, n)
	case "incremental":
		sweepIncremental(w, n, procs)
	case "ttable":
		sweepTTable(w, n, procs)
	case "memory":
		// The §9 capacity sweep executes through the shared runner and
		// renders via bench.PresentResult, the scenario engine's path.
		req, err := bench.Request("memory", map[string]int{"n": n, "procs": procs})
		if err != nil {
			return err
		}
		res, err := runner.Default().Do(ctx, req)
		if err != nil {
			return err
		}
		return bench.PresentResult(w, req, res)
	default:
		return fmt.Errorf("unknown sweep: %s", sweep)
	}
	return nil
}

func header(w io.Writer, cols ...string) {
	for _, c := range cols {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
}

// sweepUpdate is claim C2: the DSM approach's advantage over CHAOS grows
// with the frequency of indirection-array changes.
func sweepUpdate(w io.Writer, n, procs int) {
	fmt.Fprintf(w, "C2: moldyn, advantage vs update interval (N=%d, %d procs, 40 steps)\n\n", n, procs)
	header(w, "update", "chaos (s)", "tmk-opt (s)", "advantage")
	for _, u := range []int{40, 20, 10, 5, 4} {
		p := moldyn.DefaultParams(n, procs)
		p.UpdateEvery = u
		wl := moldyn.Generate(p)
		ch := moldyn.RunChaos(wl)
		opt := moldyn.RunTmk(wl, moldyn.TmkOptions{Optimized: true})
		mustEqual(ch, opt)
		fmt.Fprintf(w, "%14d%14.2f%14.2f%13.0f%%\n", u, ch.TimeSec, opt.TimeSec,
			100*(ch.TimeSec-opt.TimeSec)/ch.TimeSec)
	}
	fmt.Fprintln(w, "\nThe optimized DSM's advantage grows as the list changes more often")
	fmt.Fprintln(w, "(the inspector reruns; the Validate scan is an order cheaper).")
}

// sweepPageSize is claim C3: false sharing hurts when the consistency
// unit is large relative to the (misaligned) per-processor data.
func sweepPageSize(w io.Writer, n, procs int) {
	fmt.Fprintf(w, "C3: nbf false sharing vs page size (N=%d misaligned, %d procs)\n\n", n*1000/1024, procs)
	header(w, "page (B)", "tmk-opt (s)", "messages", "data (MB)")
	for _, ps := range []int{1024, 2048, 4096, 8192} {
		p := nbf.DefaultParams(n*1000/1024, procs) // misaligned size
		p.PageSize = ps
		wl := nbf.Generate(p)
		opt := nbf.RunTmk(wl, nbf.TmkOptions{Optimized: true})
		fmt.Fprintf(w, "%14d%14.3f%14d%14.2f\n", ps, opt.TimeSec, opt.Messages, opt.DataMB)
	}
	fmt.Fprintln(w, "\nLarger pages widen the falsely-shared boundary regions.")
}

// sweepAggregation is ablation A1: Validate with and without per-
// processor message aggregation.
func sweepAggregation(w io.Writer, n, procs int) {
	fmt.Fprintf(w, "A1: value of aggregation (moldyn N=%d + nbf N=%d, %d procs)\n\n", n, 16*n, procs)
	header(w, "app", "variant", "time (s)", "messages")
	pm := moldyn.DefaultParams(n, procs)
	wm := moldyn.Generate(pm)
	for _, noAgg := range []bool{false, true} {
		r := moldyn.RunTmk(wm, moldyn.TmkOptions{Optimized: true, NoAggregation: noAgg})
		fmt.Fprintf(w, "%14s%14s%14.2f%14d\n", "moldyn", variant(noAgg), r.TimeSec, r.Messages)
	}
	pn := nbf.DefaultParams(16*n, procs)
	wn := nbf.Generate(pn)
	for _, noAgg := range []bool{false, true} {
		r := nbf.RunTmk(wn, nbf.TmkOptions{Optimized: true, NoAggregation: noAgg})
		fmt.Fprintf(w, "%14s%14s%14.2f%14d\n", "nbf", variant(noAgg), r.TimeSec, r.Messages)
	}
}

func variant(noAgg bool) string {
	if noAgg {
		return "per-page"
	}
	return "aggregated"
}

// sweepWriteAll is ablation A2: the whole-page reduction shipping. The
// per-processor blocks must span whole pages for WRITE_ALL to engage.
func sweepWriteAll(w io.Writer, n, procs int) {
	fmt.Fprintf(w, "A2: value of WRITE_ALL page shipping (nbf N=%d, %d procs)\n\n", 16*n, procs)
	header(w, "variant", "time (s)", "messages", "data (MB)")
	p := nbf.DefaultParams(16*n, procs)
	wl := nbf.Generate(p)
	for _, noWA := range []bool{false, true} {
		r := nbf.RunTmk(wl, nbf.TmkOptions{Optimized: true, NoWriteAll: noWA})
		name := "write_all"
		if noWA {
			name = "twin+diff"
		}
		fmt.Fprintf(w, "%14s%14.3f%14d%14.2f\n", name, r.TimeSec, r.Messages, r.DataMB)
	}
	fmt.Fprintln(w, "\nWithout WRITE_ALL the reduction ships stacks of overlapping diffs")
	fmt.Fprintln(w, "(the base-TreadMarks pathology the paper calls out).")
}

// sweepProcs is ablation A3: scaling with processor count.
func sweepProcs(w io.Writer, n int) {
	fmt.Fprintf(w, "A3: moldyn scaling (N=%d)\n\n", n)
	header(w, "procs", "seq (s)", "tmk-opt (s)", "speedup", "chaos (s)")
	p1 := moldyn.DefaultParams(n, 1)
	seq := moldyn.RunSequential(moldyn.Generate(p1))
	for _, np := range []int{1, 2, 4, 8, 16} {
		p := moldyn.DefaultParams(n, np)
		wl := moldyn.Generate(p)
		opt := moldyn.RunTmk(wl, moldyn.TmkOptions{Optimized: true})
		ch := moldyn.RunChaos(wl)
		mustEqual(opt, ch)
		fmt.Fprintf(w, "%14d%14.2f%14.2f%14.2f%14.2f\n",
			np, seq.TimeSec, opt.TimeSec, seq.TimeSec/opt.TimeSec, ch.TimeSec)
	}
}

// sweepIncremental is ablation A4 (extension S13): incremental page-set
// recomputation vs full rescan. The incremental path applies when the
// indirection array changes in place with a stable shape (moldyn's list
// changes size at every rebuild, so it always falls back there); this
// micro-benchmark mutates a fixed-size indirection array between
// Validates.
func sweepIncremental(w io.Writer, n, procs int) {
	entries := 64 * n
	fmt.Fprintf(w, "A4: incremental page-set recomputation (%d entries, %d mutated/step)\n\n", entries, entries/100)
	header(w, "variant", "validate (s)")
	for _, incremental := range []bool{false, true} {
		cl := sim.NewCluster(sim.DefaultConfig(2))
		d := tmk.New(cl, 4096, 1<<26)
		data := &core.Array{Name: "data", Base: d.Alloc(8 * 8 * n), ElemSize: 8, Len: 8 * n}
		idx := &core.Array{Name: "idx", Base: d.Alloc(4 * entries), ElemSize: 4, Len: entries}
		s0 := d.Node(0).Space()
		for i := 0; i < entries; i++ {
			s0.WriteI32(idx.Addr(i), int32(i%(8*n)))
		}
		d.SealInit()
		var spent float64
		cl.Run(func(p *sim.Proc) {
			if p.ID() != 0 {
				for s := 0; s < 20; s++ {
					d.Node(1).Barrier(1)
				}
				return
			}
			node := d.Node(0)
			rt := core.NewRuntime(node)
			rt.Incremental = incremental
			desc := core.Desc{Type: core.Indirect, Data: data, Indir: idx,
				Section: rsd.Range1(0, entries-1), Access: core.Read, Sched: 1}
			for s := 0; s < 20; s++ {
				t0 := p.Clock()
				rt.Validate(desc)
				spent += (p.Clock() - t0) / 1e6
				// Mutate 1% of the entries in place.
				for k := 0; k < entries/100; k++ {
					node.Space().WriteI32(idx.Addr((k*97+s)%entries), int32((k*31+s)%(8*n)))
				}
				node.Barrier(1)
			}
		})
		name := "full rescan"
		if incremental {
			name = "incremental"
		}
		fmt.Fprintf(w, "%14s%14.4f\n", name, spent)
	}
	fmt.Fprintln(w, "\nThe paper sketches this ('a more sophisticated version ... could use")
	fmt.Fprintln(w, "diffing to incrementally recompute the page sets') but did not build it.")
}

// sweepTTable is ablation A5: translation-table organizations.
func sweepTTable(w io.Writer, n, procs int) {
	fmt.Fprintf(w, "A5: CHAOS translation-table organization (moldyn N=%d, %d procs)\n\n", n, procs)
	header(w, "table", "time (s)", "messages", "data (MB)", "inspector")
	for _, kind := range []chaos.TableKind{chaos.Replicated, chaos.Distributed, chaos.Paged} {
		p := moldyn.DefaultParams(n, procs)
		p.TableKind = kind
		wl := moldyn.Generate(p)
		r := moldyn.RunChaos(wl)
		fmt.Fprintf(w, "%14s%14.2f%14d%14.2f%14.2f\n",
			kind, r.TimeSec, r.Messages, r.DataMB, r.Detail["inspector_s"])
	}
	fmt.Fprintln(w, "\nThe paper used the distributed table for moldyn (replication did not")
	fmt.Fprintln(w, "fit) and notes the resulting inspector communication.")
}

func mustEqual(a, b *apps.Result) {
	if err := apps.VerifyEqual(a, b); err != nil {
		fmt.Fprintln(os.Stderr, "VERIFICATION FAILED:", err)
		os.Exit(1)
	}
}
