// Command scenario loads, validates, and executes experiment spec
// files (internal/scenario): the paper tables, the §9 memory sweep,
// and generic registered-application runs, as data instead of bespoke
// flag wrappers. Canned experiments render through bench.PresentResult,
// the run service's path; the golden fixtures under testdata are the
// contract.
//
//	scenario run [-j N] [-repro] [-procs N] [-out dir] [-metrics[=addr|-]] [-trace dir] <file|dir|dir/...>...
//	scenario validate <file|dir|dir/...>...
//	scenario list <file|dir|dir/...>...
//	scenario trace-summary [-top N] <trace.json>...
//
// run executes the scenarios on a bounded worker pool (-j, default
// GOMAXPROCS) fronted by a content-addressed result cache; outputs are
// reassembled in input order, so any -j renders the same bytes as
// -j 1. It exits non-zero when any assertion band is violated, when
// the repro check finds a run-to-run difference, or when a spec fails
// to load; validate exits non-zero on the first invalid spec.
//
// -metrics is the one observability flag, repeatable with different
// forms: bare -metrics prints each scenario's flattened metrics after
// its rendering; -metrics=- dumps the process metrics registry
// (Prometheus text format) after the outcomes; -metrics=ADDR serves
// that registry at http://ADDR/metrics for the run's duration (the
// same handler cmd/simd mounts).
//
// -trace <dir> records the deterministic simulated-time trace of every
// scenario (DESIGN.md §13) and writes <dir>/<name>.trace.json — Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev).
// trace-summary reduces recorded traces to the top-N hottest
// locks by wait time, longest barrier stalls, and busiest links.
//
// The profiling flags -cpuprofile/-memprofile (before the subcommand)
// write pprof profiles of the whole invocation; see `make profile`.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	// realMain so the deferred profile writers run before the process
	// exits (defers do not fire across os.Exit).
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	// Profiling flags come before the subcommand so every command can
	// be profiled without each of them re-declaring the flags.
	var cpuprofile, memprofile string
	for len(args) > 0 {
		switch {
		case args[0] == "-cpuprofile" && len(args) > 1:
			cpuprofile, args = args[1], args[2:]
		case args[0] == "-memprofile" && len(args) > 1:
			memprofile, args = args[1], args[2:]
		default:
			goto parsed
		}
	}
parsed:
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "scenario:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "scenario:", err)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "run":
		err = runCmd(ctx, stdout, rest)
	case "validate":
		err = validateCmd(stdout, rest)
	case "list":
		err = listCmd(stdout, rest)
	case "trace-summary":
		err = traceSummaryCmd(stdout, rest)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "scenario: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  scenario [-cpuprofile f] [-memprofile f] <command> ...
  scenario run [-j N] [-repro] [-procs N] [-out dir] [-metrics[=addr|-]] [-trace dir] <file|dir|dir/...>...
  scenario validate <file|dir|dir/...>...
  scenario list <file|dir|dir/...>...
  scenario trace-summary [-top N] <trace.json>...`)
}

// runOpts carries the run flags; main_test drives run() directly.
type runOpts struct {
	jobs     int    // scenario worker-pool bound (0 = GOMAXPROCS)
	repro    bool   // force the run-twice byte-diff on every spec
	procs    int    // override every spec's processor count (0 = as specified)
	outDir   string // also write each rendering to <outDir>/<name>.txt
	metrics  bool   // print the flattened metrics after each rendering
	traceDir string // force trace: true; write <traceDir>/<name>.trace.json
	obs      bool   // print the metrics registry (Prometheus text) at the end
	// metricsAddr serves the process registry over HTTP at /metrics for
	// the run's duration — the same handler cmd/simd mounts, so a
	// scraper pointed at a long sweep sees the same series names.
	metricsAddr string
}

// metricsFlag is the consolidated observability flag. One spelling,
// three forms (repeatable, so they combine):
//
//	-metrics        print the flattened metrics after each rendering
//	-metrics=-      dump the process metrics registry (Prometheus text)
//	                after the outcomes
//	-metrics=ADDR   serve the registry at http://ADDR/metrics for the
//	                run's duration
//
// IsBoolFlag lets the bare form parse without an argument, exactly
// like the bool flag it replaces.
type metricsFlag struct{ opts *runOpts }

func (f *metricsFlag) IsBoolFlag() bool { return true }
func (f *metricsFlag) String() string   { return "" }
func (f *metricsFlag) Set(s string) error {
	switch s {
	case "true":
		f.opts.metrics = true
	case "false":
		f.opts.metrics = false
	case "-":
		f.opts.obs = true
	default:
		f.opts.metricsAddr = s
	}
	return nil
}

func runCmd(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	opts := runOpts{}
	fs.IntVar(&opts.jobs, "j", 0, "run up to N scenarios concurrently (0 = GOMAXPROCS); each may run its backends in two lanes")
	fs.BoolVar(&opts.repro, "repro", false, "run every scenario twice and byte-diff the results")
	fs.IntVar(&opts.procs, "procs", 0, "override every scenario's processor count (0 = as specified)")
	fs.StringVar(&opts.outDir, "out", "", "also write each scenario's rendered output to <dir>/<name>.txt")
	fs.Var(&metricsFlag{&opts}, "metrics", "print per-scenario metrics; -metrics=- dumps the registry, -metrics=ADDR serves it at http://ADDR/metrics")
	fs.StringVar(&opts.traceDir, "trace", "", "record the simulated-time trace of every scenario into <dir>/<name>.trace.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files, err := expand(fs.Args())
	if err != nil {
		return err
	}
	return run(ctx, w, files, opts)
}

// run loads every spec, executes them all on one runner (pool + result
// cache), and then prints the outcomes serially in input order — the
// ordering rule that makes the output bytes independent of -j. All
// scenarios run (and their outputs land in -out) before the
// accumulated violations fail the invocation.
func run(ctx context.Context, w io.Writer, files []string, opts runOpts) error {
	if opts.metricsAddr != "" {
		url, stop, err := serveMetrics(opts.metricsAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(w, "metrics: %s\n\n", url)
	}
	if opts.outDir != "" {
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			return err
		}
	}
	if opts.traceDir != "" {
		if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
			return err
		}
	}
	specs := make([]*scenario.Spec, len(files))
	for i, f := range files {
		spec, err := scenario.Load(f)
		if err != nil {
			return err
		}
		if opts.repro {
			spec.Repro = true
		}
		if e, canned := bench.Canned(spec.Experiment); opts.traceDir != "" && (!canned || e.Traceable) {
			// Untraceable experiments (DESIGN.md §13) are left alone
			// instead of failing the run.
			spec.Trace = true
		}
		if opts.procs > 0 {
			overrideProcs(spec, opts.procs)
		}
		specs[i] = spec
	}
	r := runner.New(opts.jobs, cache.New(256))
	outcomes, err := runner.Map(ctx, specs,
		func(ctx context.Context, _ int, spec *scenario.Spec) (*scenario.Outcome, error) {
			return scenario.RunCtx(ctx, r, spec)
		})
	if err != nil {
		return err
	}
	var violated []string
	for i, out := range outcomes {
		spec := specs[i]
		if len(files) > 1 {
			fmt.Fprintf(w, "== %s (%s)\n\n", spec.Name, files[i])
		}
		fmt.Fprint(w, out.Rendered)
		if opts.metrics {
			fmt.Fprintf(w, "\n-- metrics (%d)\n%s", len(out.Metrics), out.MetricsText())
		}
		if opts.outDir != "" {
			path := filepath.Join(opts.outDir, spec.Name+".txt")
			if err := os.WriteFile(path, []byte(out.Rendered), 0o644); err != nil {
				return err
			}
		}
		if opts.traceDir != "" && out.Trace != nil {
			path := filepath.Join(opts.traceDir, spec.Name+".trace.json")
			if err := os.WriteFile(path, out.Trace, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "\ntrace: %s (%d events)\n", path, bytesEventCount(out.Trace))
		}
		for _, v := range out.Violations {
			fmt.Fprintf(w, "\nVIOLATION %s: %s\n", spec.Name, v)
			violated = append(violated, fmt.Sprintf("%s: %s", spec.Name, v))
		}
		if len(files) > 1 {
			fmt.Fprintln(w)
		}
	}
	if opts.obs {
		fmt.Fprintf(w, "\n-- obs registry\n%s", obs.Default().Text())
	}
	if len(violated) > 0 {
		return fmt.Errorf("%d assertion violation(s):\n  %s",
			len(violated), strings.Join(violated, "\n  "))
	}
	return nil
}

// serveMetrics exposes the process registry at /metrics on addr — the
// same handler cmd/simd mounts — until stop is called. `scenario run
// -metrics=ADDR` uses it so a scraper pointed at a long sweep sees
// live series under the same names the run service exports.
func serveMetrics(addr string) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return fmt.Sprintf("http://%s/metrics", ln.Addr()), func() { hs.Close() }, nil
}

// bytesEventCount counts the recorded trace events without parsing the
// JSON: every object opens a line of its own with its phase, and the
// per-episode and per-lane metadata objects ("ph":"M") are not events.
func bytesEventCount(trace []byte) int {
	return bytes.Count(trace, []byte("\n{\"ph\":")) - bytes.Count(trace, []byte("\n{\"ph\":\"M\""))
}

// overrideProcs points every run of the spec at one cluster size — the
// nightly matrix leg reuses one paper-scale spec set at 16 and 32
// processors. A canned spec's params are already resolved, so its
// "procs" entry is always there to replace.
func overrideProcs(spec *scenario.Spec, procs int) {
	if spec.Experiment == "app" {
		spec.Procs = []int{procs}
		return
	}
	spec.Params["procs"] = procs
}

func validateCmd(w io.Writer, args []string) error {
	files, err := expand(args)
	if err != nil {
		return err
	}
	for _, f := range files {
		spec, err := scenario.Load(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: ok (%s, %s)\n", f, spec.Name, spec.Experiment)
	}
	fmt.Fprintf(w, "%d scenario(s) valid\n", len(files))
	return nil
}

func listCmd(w io.Writer, args []string) error {
	files, err := expand(args)
	if err != nil {
		return err
	}
	for _, f := range files {
		spec, err := scenario.Load(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %-8s %-28s %s\n", spec.Name, spec.Experiment, f, spec.Description)
	}
	return nil
}

// expand resolves the operands: a file is taken as-is, a directory
// lists its spec files (non-recursive), and a trailing "/..." walks
// the tree — `scenario validate ./scenarios/...` is the CI lint.
func expand(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no scenario files given")
	}
	var out []string
	for _, a := range args {
		switch {
		case strings.HasSuffix(a, "/..."):
			root := strings.TrimSuffix(a, "/...")
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() && scenario.IsSpecFile(path) {
					out = append(out, path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			info, err := os.Stat(a)
			if err != nil {
				return nil, err
			}
			if info.IsDir() {
				files, err := scenario.Files(a)
				if err != nil {
					return nil, err
				}
				out = append(out, files...)
				continue
			}
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenario files found under %s", strings.Join(args, " "))
	}
	return out, nil
}
