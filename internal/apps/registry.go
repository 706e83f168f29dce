// The application registry: every irregular application (moldyn, nbf,
// unstruct, spmv, ...) adapts its generated workload to the Workload
// interface and self-registers a named factory from an init function.
// The table commands and the bench harness iterate the registry instead
// of hard-coding per-app calls, so opening a new workload is: implement
// the four backends on an Episode, register a factory returning them as
// Variants, done.
package apps

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Workload is one generated problem instance that every backend can
// execute. The four methods correspond to the paper's four systems: the
// sequential reference, the CHAOS inspector-executor library, the base
// TreadMarks DSM (demand paging), and the compiler-optimized TreadMarks
// DSM (Validate with aggregated prefetch). Each returns the common
// Result record with the Measure-window statistics filled in; the final
// state (X, Forces) must be bit-identical across all four.
type Workload interface {
	Name() string
	Sequential() *Result
	Chaos() *Result
	TmkBase() *Result
	TmkOpt() *Result
}

// Variants is the Workload every app's factory returns: its name and
// four backend funcs closed over the generated workload, one per slot.
type Variants struct {
	App                               string
	RunSeq, RunChaos, RunBase, RunOpt func() *Result
}

func (v Variants) Name() string        { return v.App }
func (v Variants) Sequential() *Result { return v.RunSeq() }
func (v Variants) Chaos() *Result      { return v.RunChaos() }
func (v Variants) TmkBase() *Result    { return v.RunBase() }
func (v Variants) TmkOpt() *Result     { return v.RunOpt() }

// NewVariants closes an app's backends over its generated workload w:
// seq and chaos run as they are, tmk once under the base and once under
// the optimized options.
func NewVariants[W, O any](app string, w W, seq, chaos func(W) *Result,
	tmk func(W, O) *Result, base, opt O) Variants {
	return Variants{App: app,
		RunSeq:   func() *Result { return seq(w) },
		RunChaos: func() *Result { return chaos(w) },
		RunBase:  func() *Result { return tmk(w, base) },
		RunOpt:   func() *Result { return tmk(w, opt) },
	}
}

// Config parameterizes a registered application's workload factory with
// the knobs the harness sweeps. Zero Steps/Seed mean "app default"; N
// and Procs have no default and must be positive (New rejects them
// otherwise — there is no sensible problem size to fall back to).
type Config struct {
	N     int   // primary problem size (molecules, rows, nodes); required
	Procs int   // processors for the parallel backends; required
	Steps int   // timed steps; 0 = app default
	Seed  int64 // workload seed; 0 = app default
	// Knobs carries app-specific integer parameters (e.g. moldyn's
	// "update_every", nbf's "partners", spmv's "nnz_row").
	Knobs map[string]int
	// Machine carries simulated-machine overrides (latency, bandwidth)
	// that every app honors; zero fields mean the SP2 default.
	Machine Machine
}

// Knob returns the named app-specific parameter, or def if unset.
func (c Config) Knob(name string, def int) int {
	if v, ok := c.Knobs[name]; ok {
		return v
	}
	return def
}

// ApplyCommon copies the config's common overrides onto an app's params
// fields, honoring zero-means-default. Every factory calls it so the
// Steps/Seed mapping rule lives in one place.
func (c Config) ApplyCommon(steps *int, seed *int64) {
	if c.Steps > 0 {
		*steps = c.Steps
	}
	if c.Seed != 0 {
		*seed = c.Seed
	}
}

// WithKnob returns a copy of the config with one knob set.
func (c Config) WithKnob(name string, v int) Config {
	knobs := make(map[string]int, len(c.Knobs)+1)
	for k, kv := range c.Knobs {
		knobs[k] = kv
	}
	knobs[name] = v
	c.Knobs = knobs
	return c
}

// Factory builds a Workload instance from a Config.
type Factory func(cfg Config) Workload

type registration struct {
	f     Factory
	knobs map[string]bool
}

var (
	regMu    sync.Mutex
	registry = map[string]registration{}
)

// Register adds a named application factory, declaring the knob names
// its factory understands (New rejects configs carrying any other —
// a typo'd knob must not silently run with defaults). It is called from
// app package init functions; registering the same name twice panics
// (it means two packages claim one application).
func Register(name string, f Factory, knobs ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("apps: duplicate registration of %q", name))
	}
	ks := make(map[string]bool, len(knobs))
	for _, k := range knobs {
		ks[k] = true
	}
	registry[name] = registration{f: f, knobs: ks}
}

// Lookup returns the named factory.
func Lookup(name string) (Factory, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	r, ok := registry[name]
	return r.f, ok
}

// Knobs returns the sorted knob names the named application declared,
// and whether the application is registered at all — the parameter
// schema the scenario validator checks sweep axes and knob maps
// against without building a workload.
func Knobs(name string) ([]string, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	r, ok := registry[name]
	if !ok {
		return nil, false
	}
	return sortedKeys(r.knobs), true
}

// Names lists the registered applications in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New builds a workload for the named registered application. Knobs the
// application did not declare are an error, not a silent default run,
// and N/Procs must be positive (a zero size would panic deep in the
// arena instead of failing here). A factory panic (an app rejecting an
// out-of-range size or an inapplicable parameter) is returned as an
// error, so CLI surfaces report it instead of dumping a stack.
func New(name string, cfg Config) (w Workload, err error) {
	regMu.Lock()
	r, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (registered: %v)", name, Names())
	}
	if cfg.N <= 0 || cfg.Procs <= 0 {
		return nil, fmt.Errorf("apps: %s needs positive N and Procs (got N=%d, Procs=%d)",
			name, cfg.N, cfg.Procs)
	}
	for k, v := range cfg.Knobs {
		if !r.knobs[k] {
			return nil, fmt.Errorf("apps: %s does not understand knob %q (knows: %v)",
				name, k, sortedKeys(r.knobs))
		}
		if v < 0 {
			return nil, fmt.Errorf("apps: %s knob %q must be non-negative (got %d)", name, k, v)
		}
	}
	if err := cfg.Machine.Validate(cfg.Procs); err != nil {
		return nil, fmt.Errorf("apps: %s: %v", name, err)
	}
	defer func() {
		if p := recover(); p != nil {
			w, err = nil, fmt.Errorf("apps: %s: %v", name, p)
		}
	}()
	return r.f(cfg), nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// VariantSet holds one workload's four runs, verified bit-identical and
// with speedups filled against the sequential reference.
type VariantSet struct {
	Seq   *Result
	Chaos *Result
	Base  *Result
	Opt   *Result
}

// Parallel returns the three parallel results in the paper's table
// order (CHAOS, Tmk base, Tmk optimized).
func (v *VariantSet) Parallel() []*Result {
	return []*Result{v.Chaos, v.Base, v.Opt}
}

// All returns all four results, sequential first.
func (v *VariantSet) All() []*Result {
	return []*Result{v.Seq, v.Chaos, v.Base, v.Opt}
}

// RunAll executes every backend of one workload, verifies the parallel
// backends against the sequential reference bit-exactly, and fills the
// speedup column.
func RunAll(w Workload) (*VariantSet, error) {
	return RunAllCtx(context.Background(), w)
}

// RunAllCtx is RunAll observing a context: cancellation is checked
// before each backend execution — the phase boundaries of one
// configuration — so an aborted run stops between simulated cluster
// episodes, never mid-episode, and returns no partial VariantSet.
func RunAllCtx(ctx context.Context, w Workload) (*VariantSet, error) {
	vs := &VariantSet{}
	for _, b := range []struct {
		run  func() *Result
		slot **Result
	}{
		{w.Sequential, &vs.Seq},
		{w.Chaos, &vs.Chaos},
		{w.TmkBase, &vs.Base},
		{w.TmkOpt, &vs.Opt},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		*b.slot = b.run()
	}
	for _, r := range vs.Parallel() {
		if err := VerifyEqual(vs.Seq, r); err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.Name(), r.System, err)
		}
		if r.TimeSec > 0 {
			r.Speedup = vs.Seq.TimeSec / r.TimeSec
		}
	}
	vs.Seq.Speedup = 1
	return vs, nil
}
