// Command perf is the repository's benchmark (see README.md beside
// this file and BENCHMARK.json at the repository root): one command,
// four workloads, end-to-end metrics measured with tracing off and
// per-layer metrics from a separate traced run.
//
//	go run ./perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run ./perf [-repeat k] [-out results.json]       # every workload, both modes
//	go run ./perf -compare a.json b.json
//	go run ./perf -update-fingerprints
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart approximates process start: package variables are
// initialized before main runs, after the runtime and the imported
// packages' own initialization.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the knobs of one single-workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		o         options
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out       = flag.String("out", "", "write every run's result and the provenance header to this JSON file (full runs)")
		repeat    = flag.Int("repeat", 1, "full runs: repeat each workload this many times, with seeds seed, seed+1, ...")
		compare   = flag.Bool("compare", false, "compare two -out files: perf -compare a.json b.json")
		updateFPs = flag.Bool("update-fingerprints", false, "rewrite perf/testdata/fingerprints.json")
	)
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process and print its result object last (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (>= 1): the apps' seed key and the service request mix")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time of one run")
	flag.BoolVar(&o.quick, "quick", false, "test scale: tiny problem sizes, timings meaningless")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a single-workload traced run (default .perf-out/spans-<workload>.json)")
	flag.Parse()
	o.trace = *trace != 0

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	if o.seed < 1 {
		return fail(fmt.Errorf("-seed must be >= 1 (got %d)", o.seed))
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	case *updateFPs:
		if err := updateFingerprints(); err != nil {
			return fail(err)
		}
		return 0
	case o.workload == "":
		if err := runAll(o, *repeat, *out); err != nil {
			return fail(err)
		}
		return 0
	}

	res, err := runWorkload(o)
	if err != nil {
		return fail(err)
	}
	printResult(o.workload, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload in this process.
func runWorkload(o options) (*result, error) {
	fmt.Printf("# perf workload=%s seed=%d seconds=%g trace=%v quick=%v %s\n",
		o.workload, o.seed, o.seconds, o.trace, o.quick, hostLine())
	if isBatch(o.workload) {
		return runBatchWorkload(o)
	}
	return runServiceWorkload(o)
}

// printResult prints one `workload metric value unit` line per metric
// and then the result object as the last line of standard output.
func printResult(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %v %s\n", workload, name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}

// hostLine is the provenance every run prints.
func hostLine() string {
	return fmt.Sprintf("go=%s cpu=%q nproc=%d gomaxprocs=%d",
		runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}
