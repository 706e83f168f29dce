// Package scenario turns the repo's experiments into data: a spec file
// (YAML subset or JSON) names an experiment — one of the paper tables,
// the §9 memory sweep, or a generic registered application — with its
// parameters, optional sweep axis, assertion bands on the verified
// metrics, and an exact-reproducibility check. The canned experiments'
// schemas live in internal/bench (bench.Canned); the engine (engine.go)
// executes a validated spec through bench.Run and renders it through
// bench.PresentResult, the same path the run service uses.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/bench"
)

// MaxProcs bounds the simulated cluster a spec may ask for; the
// shard-scheduled simulator is exercised far below this, and a typo'd
// proc count should fail validation, not allocate a absurd cluster.
const MaxProcs = 1024

// Band is one assertion: the named metric must land inside [Min, Max]
// (either side may be open).
type Band struct {
	Metric string
	Min    *float64
	Max    *float64
}

// Interval renders the band in interval notation for violation
// reports and error messages.
func (b Band) Interval() string {
	switch {
	case b.Min != nil && b.Max != nil:
		return fmt.Sprintf("[%g, %g]", *b.Min, *b.Max)
	case b.Min != nil:
		return fmt.Sprintf("[%g, +inf)", *b.Min)
	case b.Max != nil:
		return fmt.Sprintf("(-inf, %g]", *b.Max)
	}
	return "(-inf, +inf)"
}

// Sweep names one swept axis of an app experiment: the run grid is the
// cross product of the sweep values and the procs list.
type Sweep struct {
	Axis   string
	Values []int
}

// SpecVersion is the schema version this package reads and writes. A
// spec may pin `version: 1` explicitly; an absent key means version 1
// (every pre-versioning spec file is a valid version-1 spec), and any
// other value is rejected so a future schema bump fails loudly here
// instead of half-parsing.
const SpecVersion = 1

// Spec is one validated scenario.
type Spec struct {
	Name        string
	Description string
	// Version is the spec schema version, normalized to SpecVersion
	// during validation (0, the absent-key value, means "current").
	Version int
	// Experiment is table1..table5, memory, or app.
	Experiment string
	// Params carries the canned experiments' parameters; unset keys
	// take the schema defaults (bench.Canned).
	Params map[string]int
	// Repro asks the engine to run the whole experiment twice and
	// byte-diff the rendered output and the metrics text.
	Repro bool
	// Trace asks the run to record the deterministic simulated-event
	// trace (DESIGN.md §13); `scenario run -trace <dir>` writes it to
	// <dir>/<name>.trace.json. Rejected for canned experiments the run
	// layer keeps untraced (bench.Experiment.Traceable).
	Trace bool

	// The app-experiment fields (rejected for the other experiments).
	App      string
	N        int
	Steps    int
	Seed     int64
	Procs    []int
	Variants []string
	Knobs    map[string]int
	Sweep    *Sweep
	// Machine is the structured machine spec (`machine:` mapping):
	// uniform latency/bandwidth overrides plus the optional perturb
	// block. Absent keys inherit the SP2 defaults; explicit zeros are
	// rejected as ambiguous during parsing.
	Machine apps.Machine

	// machineSet records whether the spec file carried a "machine" key
	// (the canned experiments reject it even when it decodes to the
	// zero Machine).
	machineSet bool

	// Assert carries the bands checked against the run's metrics.
	Assert []Band
}

// variantSlots is the registry's four result slots (apps.Result.System).
var variantSlots = []string{"seq", "chaos", "tmk", "tmk-opt"}

// Param returns a canned experiment parameter, falling back to the
// schema default.
func (s *Spec) Param(name string) int {
	if v, ok := s.Params[name]; ok {
		return v
	}
	e, _ := bench.Canned(s.Experiment)
	return e.Params[name]
}

// Load reads and validates one spec file; the format follows the
// extension.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec *Spec
	switch ext := filepath.Ext(path); ext {
	case ".yaml", ".yml":
		spec, err = Parse(data)
	case ".json":
		spec, err = ParseJSON(data)
	default:
		return nil, fmt.Errorf("scenario: %s: unsupported extension %q (want .yaml, .yml, or .json)", path, ext)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Parse decodes and validates one YAML spec document.
func Parse(data []byte) (*Spec, error) {
	doc, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return FromGeneric(doc)
}

// ParseJSON decodes and validates one JSON spec document.
func ParseJSON(data []byte) (*Spec, error) {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return FromGeneric(doc)
}

// Files lists the spec files (*.yaml, *.yml, *.json) directly under
// dir, sorted; scenario directories are flat by convention.
func Files(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".yaml", ".yml", ".json":
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// specKeys is the complete top-level vocabulary; anything else is a
// typo and must not silently validate.
var specKeys = map[string]bool{
	"version": true,
	"name":    true, "description": true, "experiment": true, "params": true,
	"repro": true, "trace": true, "app": true, "n": true, "steps": true,
	"seed": true, "procs": true, "variants": true, "knobs": true,
	"sweep": true, "machine": true, "assert": true,
}

// FromGeneric builds and validates a Spec from the generic
// map/slice/scalar shape both decoders produce.
func FromGeneric(doc any) (*Spec, error) {
	m, ok := doc.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: top-level document must be a mapping")
	}
	for _, k := range sortedMapKeys(m) {
		if !specKeys[k] {
			return nil, fmt.Errorf("scenario: unknown key %q", k)
		}
	}
	s := &Spec{}
	var err error
	if s.Version, _, err = optInt(m, "version"); err != nil {
		return nil, err
	}
	if s.Name, err = optString(m, "name"); err != nil {
		return nil, err
	}
	if s.Description, err = optString(m, "description"); err != nil {
		return nil, err
	}
	if s.Experiment, err = optString(m, "experiment"); err != nil {
		return nil, err
	}
	if s.Params, err = optIntMap(m, "params"); err != nil {
		return nil, err
	}
	if s.Repro, err = optBool(m, "repro"); err != nil {
		return nil, err
	}
	if s.Trace, err = optBool(m, "trace"); err != nil {
		return nil, err
	}
	if s.App, err = optString(m, "app"); err != nil {
		return nil, err
	}
	if s.N, _, err = optInt(m, "n"); err != nil {
		return nil, err
	}
	if s.Steps, _, err = optInt(m, "steps"); err != nil {
		return nil, err
	}
	seed, _, err := optInt(m, "seed")
	if err != nil {
		return nil, err
	}
	s.Seed = int64(seed)
	if s.Procs, err = optIntList(m, "procs"); err != nil {
		return nil, err
	}
	if s.Variants, err = optStringList(m, "variants"); err != nil {
		return nil, err
	}
	if s.Knobs, err = optIntMap(m, "knobs"); err != nil {
		return nil, err
	}
	if s.Sweep, err = optSweep(m); err != nil {
		return nil, err
	}
	if s.Machine, s.machineSet, err = optMachine(m); err != nil {
		return nil, err
	}
	if s.Assert, err = optBands(m); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate checks the decoded spec against the experiment schemas and
// the application registry, then fills the app-experiment defaults
// (procs [8], all four variants).
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf(`scenario: missing required key "name"`)
	}
	switch s.Version {
	case 0:
		s.Version = SpecVersion
	case SpecVersion:
	default:
		return fmt.Errorf("scenario %q: unsupported spec version %d (supported: %d)",
			s.Name, s.Version, SpecVersion)
	}
	if s.Experiment == "" {
		return fmt.Errorf(`scenario %q: missing required key "experiment"`, s.Name)
	}
	e, canned := bench.Canned(s.Experiment)
	if s.Experiment != "app" {
		// Unknown experiments, unknown params, and negative values.
		if _, err := bench.Request(s.Experiment, s.Params); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	if s.Trace && canned && !e.Traceable {
		return fmt.Errorf("scenario %q: the %s experiment does not support trace: true (its grids re-run one backend many times; see DESIGN.md §13)", s.Name, s.Experiment)
	}

	if canned {
		appOnly := []struct {
			key string
			set bool
		}{
			{"app", s.App != ""}, {"n", s.N != 0}, {"steps", s.Steps != 0},
			{"seed", s.Seed != 0}, {"procs", len(s.Procs) > 0},
			{"variants", len(s.Variants) > 0}, {"knobs", len(s.Knobs) > 0},
			{"machine", s.machineSet},
		}
		for _, f := range appOnly {
			if f.set {
				return fmt.Errorf("scenario %q: key %q only applies to the app experiment", s.Name, f.key)
			}
		}
		if s.Sweep != nil {
			if e.SweepAxis == "" {
				return fmt.Errorf(`scenario %q: key "sweep" only applies to the app and memory experiments`, s.Name)
			}
			if s.Sweep.Axis != e.SweepAxis {
				return fmt.Errorf(`scenario %q: the %s experiment can only sweep %q (got %q)`,
					s.Name, s.Experiment, e.SweepAxis, s.Sweep.Axis)
			}
			if len(s.Sweep.Values) == 0 {
				return fmt.Errorf("scenario %q: sweep over %q has no values", s.Name, s.Sweep.Axis)
			}
			for _, v := range s.Sweep.Values {
				if v <= 0 {
					return fmt.Errorf("scenario %q: sweep value %d must be positive", s.Name, v)
				}
			}
		}
		if p := s.Param("procs"); p < 1 || p > MaxProcs {
			return fmt.Errorf("scenario %q: proc count %d out of range [1, %d]", s.Name, p, MaxProcs)
		}
	} else {
		if len(s.Params) > 0 {
			return fmt.Errorf(`scenario %q: key "params" only applies to the table and memory experiments`, s.Name)
		}
		if s.App == "" {
			return fmt.Errorf(`scenario %q: the app experiment needs "app"`, s.Name)
		}
		knobs, ok := apps.Knobs(s.App)
		if !ok {
			return fmt.Errorf("scenario %q: unknown application %q (registered: %v)", s.Name, s.App, apps.Names())
		}
		if s.N <= 0 {
			return fmt.Errorf(`scenario %q: the app experiment needs a positive "n" (got %d)`, s.Name, s.N)
		}
		for _, p := range s.Procs {
			if p < 1 || p > MaxProcs {
				return fmt.Errorf("scenario %q: proc count %d out of range [1, %d]", s.Name, p, MaxProcs)
			}
		}
		for _, v := range s.Variants {
			if !contains(variantSlots, v) {
				return fmt.Errorf("scenario %q: unknown variant %q (want %s)",
					s.Name, v, strings.Join(variantSlots, ", "))
			}
		}
		for _, k := range sortedIntMapKeys(s.Knobs) {
			if !contains(knobs, k) {
				return fmt.Errorf("scenario %q: %s does not declare knob %q (declares: %v)", s.Name, s.App, k, knobs)
			}
		}
		if s.Sweep != nil {
			if s.Sweep.Axis == "procs" {
				return fmt.Errorf(`scenario %q: "procs" is not a sweep axis (give a procs list instead)`, s.Name)
			}
			if !contains([]string{"n", "steps", "latency_us", "bandwidth_mbs"}, s.Sweep.Axis) &&
				!contains(knobs, s.Sweep.Axis) {
				return fmt.Errorf("scenario %q: %s cannot sweep axis %q (axes: n, steps, latency_us, bandwidth_mbs, and knobs %v)",
					s.Name, s.App, s.Sweep.Axis, knobs)
			}
			if len(s.Sweep.Values) == 0 {
				return fmt.Errorf("scenario %q: sweep over %q has no values", s.Name, s.Sweep.Axis)
			}
			for _, v := range s.Sweep.Values {
				if v <= 0 {
					return fmt.Errorf("scenario %q: sweep value %d must be positive", s.Name, v)
				}
			}
		}
		if len(s.Procs) == 0 {
			s.Procs = []int{8}
		}
		if len(s.Variants) == 0 {
			s.Variants = append([]string(nil), variantSlots...)
		}
		// The machine spec must be valid for every grid point, so it is
		// checked against the smallest requested cluster.
		minProcs := s.Procs[0]
		for _, p := range s.Procs {
			if p < minProcs {
				minProcs = p
			}
		}
		if err := s.Machine.Validate(minProcs); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}

	for _, b := range s.Assert {
		if b.Metric == "" {
			return fmt.Errorf(`scenario %q: assertion needs a "metric"`, s.Name)
		}
		if b.Min == nil && b.Max == nil {
			return fmt.Errorf(`scenario %q: assertion on %q needs "min" and/or "max"`, s.Name, b.Metric)
		}
		if b.Min != nil && b.Max != nil && *b.Min > *b.Max {
			return fmt.Errorf("scenario %q: assertion on %q has an empty band (min %g > max %g)",
				s.Name, b.Metric, *b.Min, *b.Max)
		}
	}
	return nil
}

// --- generic-shape field extraction ---

func optString(m map[string]any, key string) (string, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return "", nil
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("scenario: key %q must be a string (got %v)", key, v)
	}
	return s, nil
}

func optBool(m map[string]any, key string) (bool, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return false, nil
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("scenario: key %q must be true or false (got %v)", key, v)
	}
	return b, nil
}

func optInt(m map[string]any, key string) (int, bool, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return 0, false, nil
	}
	n, err := intVal(v, key)
	return n, err == nil, err
}

// intVal narrows a decoded number (always float64, matching
// encoding/json) to an exact integer.
func intVal(v any, what string) (int, error) {
	f, ok := v.(float64)
	if !ok || f != float64(int(f)) {
		return 0, fmt.Errorf("scenario: %s must be an integer (got %v)", what, v)
	}
	return int(f), nil
}

func optIntMap(m map[string]any, key string) (map[string]int, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, nil
	}
	mm, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: key %q must be a mapping of integers (got %v)", key, v)
	}
	out := make(map[string]int, len(mm))
	for _, k := range sortedMapKeys(mm) {
		n, err := intVal(mm[k], fmt.Sprintf("%s.%s", key, k))
		if err != nil {
			return nil, err
		}
		out[k] = n
	}
	return out, nil
}

func optIntList(m map[string]any, key string) ([]int, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, nil
	}
	l, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("scenario: key %q must be a list of integers (got %v)", key, v)
	}
	out := make([]int, 0, len(l))
	for i, e := range l {
		n, err := intVal(e, fmt.Sprintf("%s[%d]", key, i))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func optStringList(m map[string]any, key string) ([]string, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, nil
	}
	l, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("scenario: key %q must be a list of strings (got %v)", key, v)
	}
	out := make([]string, 0, len(l))
	for i, e := range l {
		s, ok := e.(string)
		if !ok {
			return nil, fmt.Errorf("scenario: %s[%d] must be a string (got %v)", key, i, e)
		}
		out = append(out, s)
	}
	return out, nil
}

func optSweep(m map[string]any) (*Sweep, error) {
	v, ok := m["sweep"]
	if !ok || v == nil {
		return nil, nil
	}
	mm, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf(`scenario: key "sweep" must be a mapping with "axis" and "values" (got %v)`, v)
	}
	for _, k := range sortedMapKeys(mm) {
		if k != "axis" && k != "values" {
			return nil, fmt.Errorf("scenario: unknown sweep key %q (want axis, values)", k)
		}
	}
	sw := &Sweep{}
	var err error
	if sw.Axis, err = optString(mm, "axis"); err != nil {
		return nil, err
	}
	if sw.Axis == "" {
		return nil, fmt.Errorf(`scenario: a sweep needs an "axis"`)
	}
	if sw.Values, err = optIntList(mm, "values"); err != nil {
		return nil, err
	}
	return sw, nil
}

// optMachine decodes the structured `machine:` mapping. The default-
// inheritance rule (absent key = SP2 default) makes an explicit zero
// unexpressible, so zeros are rejected here — where "key present with
// value 0" is still distinguishable from "key absent" — instead of
// silently becoming the default downstream.
func optMachine(m map[string]any) (apps.Machine, bool, error) {
	var mach apps.Machine
	v, ok := m["machine"]
	if !ok || v == nil {
		return mach, false, nil
	}
	mm, ok := v.(map[string]any)
	if !ok {
		return mach, true, fmt.Errorf(`scenario: key "machine" must be a mapping (got %v)`, v)
	}
	for _, k := range sortedMapKeys(mm) {
		if k != "latency_us" && k != "bandwidth_mbs" && k != "perturb" {
			return mach, true, fmt.Errorf("scenario: unknown machine key %q (want latency_us, bandwidth_mbs, perturb)", k)
		}
	}
	var err error
	var set bool
	if mach.LatencyUS, set, err = optInt(mm, "latency_us"); err != nil {
		return mach, true, err
	}
	if set && mach.LatencyUS == 0 {
		return mach, true, fmt.Errorf(`scenario: machine.latency_us: 0 is ambiguous (0 means "inherit the default"); omit the key to inherit the SP2 default`)
	}
	if mach.BandwidthMBs, set, err = optInt(mm, "bandwidth_mbs"); err != nil {
		return mach, true, err
	}
	if set && mach.BandwidthMBs == 0 {
		return mach, true, fmt.Errorf(`scenario: machine.bandwidth_mbs: 0 is ambiguous (0 means "inherit the default"); omit the key to inherit the SP2 default`)
	}
	pv, ok := mm["perturb"]
	if !ok || pv == nil {
		return mach, true, nil
	}
	pm, ok := pv.(map[string]any)
	if !ok {
		return mach, true, fmt.Errorf(`scenario: key "machine.perturb" must be a mapping (got %v)`, pv)
	}
	for _, k := range sortedMapKeys(pm) {
		if k != "cpu" && k != "links" && k != "jitter_us" && k != "jitter_seed" {
			return mach, true, fmt.Errorf("scenario: unknown machine.perturb key %q (want cpu, links, jitter_us, jitter_seed)", k)
		}
	}
	pert := &apps.Perturb{}
	if pert.CPU, err = optFloatList(pm, "cpu"); err != nil {
		return mach, true, err
	}
	if j, err := optFloat(pm, "jitter_us"); err != nil {
		return mach, true, err
	} else if j != nil {
		pert.JitterUS = *j
	}
	seed, _, err := optInt(pm, "jitter_seed")
	if err != nil {
		return mach, true, err
	}
	pert.JitterSeed = int64(seed)
	if lv, ok := pm["links"]; ok && lv != nil {
		ll, ok := lv.([]any)
		if !ok {
			return mach, true, fmt.Errorf(`scenario: key "machine.perturb.links" must be a list of mappings (got %v)`, lv)
		}
		for i, e := range ll {
			lm, ok := e.(map[string]any)
			if !ok {
				return mach, true, fmt.Errorf("scenario: machine.perturb.links[%d] must be a mapping (got %v)", i, e)
			}
			for _, k := range sortedMapKeys(lm) {
				if k != "from" && k != "to" && k != "latency_us" && k != "bandwidth_mbs" {
					return mach, true, fmt.Errorf("scenario: unknown link key %q (want from, to, latency_us, bandwidth_mbs)", k)
				}
			}
			var l apps.LinkOverride
			fromSet, toSet := false, false
			if l.From, fromSet, err = optInt(lm, "from"); err != nil {
				return mach, true, err
			}
			if l.To, toSet, err = optInt(lm, "to"); err != nil {
				return mach, true, err
			}
			if !fromSet || !toSet {
				return mach, true, fmt.Errorf(`scenario: machine.perturb.links[%d] needs "from" and "to"`, i)
			}
			if l.LatencyUS, _, err = optInt(lm, "latency_us"); err != nil {
				return mach, true, err
			}
			if l.BandwidthMBs, _, err = optInt(lm, "bandwidth_mbs"); err != nil {
				return mach, true, err
			}
			pert.Links = append(pert.Links, l)
		}
	}
	if !pert.IsZero() {
		mach.Perturb = pert
	}
	return mach, true, nil
}

func optFloatList(m map[string]any, key string) ([]float64, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, nil
	}
	l, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("scenario: key %q must be a list of numbers (got %v)", key, v)
	}
	out := make([]float64, 0, len(l))
	for i, e := range l {
		f, ok := e.(float64)
		if !ok {
			return nil, fmt.Errorf("scenario: %s[%d] must be a number (got %v)", key, i, e)
		}
		out = append(out, f)
	}
	return out, nil
}

func optBands(m map[string]any) ([]Band, error) {
	v, ok := m["assert"]
	if !ok || v == nil {
		return nil, nil
	}
	l, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf(`scenario: key "assert" must be a list of bands (got %v)`, v)
	}
	out := make([]Band, 0, len(l))
	for i, e := range l {
		mm, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf(`scenario: assert[%d] must be a mapping with "metric" and "min"/"max" (got %v)`, i, e)
		}
		for _, k := range sortedMapKeys(mm) {
			if k != "metric" && k != "min" && k != "max" {
				return nil, fmt.Errorf("scenario: unknown assert key %q (want metric, min, max)", k)
			}
		}
		var b Band
		var err error
		if b.Metric, err = optString(mm, "metric"); err != nil {
			return nil, err
		}
		if b.Min, err = optFloat(mm, "min"); err != nil {
			return nil, err
		}
		if b.Max, err = optFloat(mm, "max"); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func optFloat(m map[string]any, key string) (*float64, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, nil
	}
	f, ok := v.(float64)
	if !ok {
		return nil, fmt.Errorf("scenario: key %q must be a number (got %v)", key, v)
	}
	return &f, nil
}

func sortedMapKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntMapKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(l []string, s string) bool {
	for _, e := range l {
		if e == s {
			return true
		}
	}
	return false
}
