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
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/sim"
)

// MaxProcs bounds the simulated cluster a spec may ask for; the
// shard-scheduled simulator is exercised far below this, and a typo'd
// proc count should fail validation, not allocate a absurd cluster.
const MaxProcs = 1024

// Band is one assertion: the named metric must land inside [Min, Max]
// (either side may be open).
type Band struct {
	Metric string   `json:"metric"`
	Min    *float64 `json:"min"`
	Max    *float64 `json:"max"`
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

// SpecVersion is the schema version this package reads. A spec may
// pin `version: 1` explicitly; an absent key means version 1 (every
// pre-versioning spec file is a valid version-1 spec), and any other
// value is rejected so a future schema bump fails loudly here instead
// of half-parsing.
const SpecVersion = 1

// Spec is one validated scenario: the fully resolved run request it
// executes (canned params filled from the schema defaults, the app
// experiment's procs default applied) and what only the scenario layer
// uses — its name and description, the variant rows it renders, the
// bands it asserts and the repro check.
type Spec struct {
	Name        string
	Description string
	// Variants selects the rendered rows of an app experiment by slot
	// (apps.Slots; all four by default). It is presentation, never part
	// of the request.
	Variants []string
	// Assert carries the bands checked against the run's metrics.
	Assert []Band
	// Repro asks the engine to run the whole experiment twice and
	// byte-diff the rendered output and the metrics text.
	Repro bool

	bench.RunRequest
}

// specFile is a spec document as written. Its json tags, and those of
// the types below it, are the whole vocabulary: checkShape rejects any
// other key before encoding/json decodes the document. A pointer field
// marks a key whose presence matters.
type specFile struct {
	Version     int            `json:"version"`
	Name        string         `json:"name"`
	Description string         `json:"description"`
	Experiment  string         `json:"experiment"`
	Params      map[string]int `json:"params"`
	Repro       bool           `json:"repro"`
	Trace       bool           `json:"trace"`
	App         string         `json:"app"`
	N           int            `json:"n"`
	Steps       int            `json:"steps"`
	Seed        int64          `json:"seed"`
	Procs       []int          `json:"procs"`
	Variants    []string       `json:"variants"`
	Knobs       map[string]int `json:"knobs"`
	Sweep       *sweepFile     `json:"sweep"`
	Machine     *machineFile   `json:"machine"`
	Assert      []Band         `json:"assert"`
}

type sweepFile struct {
	Axis   string `json:"axis"`
	Values []int  `json:"values"`
}

// machineFile keeps the uniform overrides as pointers: absent means
// "inherit the SP2 default", so an explicit 0 cannot mean anything and
// is rejected rather than silently becoming the default downstream.
type machineFile struct {
	LatencyUS    *int         `json:"latency_us"`
	BandwidthMBs *int         `json:"bandwidth_mbs"`
	Perturb      *perturbFile `json:"perturb"`
}

type perturbFile struct {
	CPU        []float64  `json:"cpu"`
	Links      []linkFile `json:"links"`
	JitterUS   float64    `json:"jitter_us"`
	JitterSeed int64      `json:"jitter_seed"`
}

type linkFile struct {
	From         *int `json:"from"`
	To           *int `json:"to"`
	LatencyUS    int  `json:"latency_us"`
	BandwidthMBs int  `json:"bandwidth_mbs"`
}

// IsSpecFile reports whether path names a spec file: .yaml or .yml
// (decoded by Parse) or .json (decoded by ParseJSON).
func IsSpecFile(path string) bool {
	switch filepath.Ext(path) {
	case ".yaml", ".yml", ".json":
		return true
	}
	return false
}

// Load reads and validates one spec file; the format follows the
// extension. Errors name the file once: "<path>: <what is wrong>".
func Load(path string) (*Spec, error) {
	if !IsSpecFile(path) {
		return nil, fmt.Errorf("%s: unsupported extension %q (want .yaml, .yml, or .json)", path, filepath.Ext(path))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	parse := Parse
	if filepath.Ext(path) == ".json" {
		parse = ParseJSON
	}
	spec, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %s", path, strings.TrimPrefix(err.Error(), "scenario: "))
	}
	return spec, nil
}

// Parse decodes and validates one YAML spec document.
func Parse(data []byte) (*Spec, error) {
	doc, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return decode(doc)
}

// ParseJSON decodes and validates one JSON spec document.
func ParseJSON(data []byte) (*Spec, error) {
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return decode(doc)
}

// Files lists the spec files (IsSpecFile) directly under dir, sorted;
// scenario directories are flat by convention.
func Files(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && IsSpecFile(e.Name()) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

// decode builds and validates a Spec from the generic
// map/slice/scalar shape both parsers produce: the shape is checked
// against specFile's tags, decoded into a specFile by encoding/json,
// and validated into its run request.
func decode(doc any) (*Spec, error) {
	m, ok := doc.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: top-level document must be a mapping")
	}
	if err := checkFields(m, reflect.TypeFor[specFile](), "", ""); err != nil {
		return nil, err
	}
	var f specFile
	raw, err := json.Marshal(m)
	if err == nil {
		err = json.Unmarshal(raw, &f)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	return f.spec()
}

// machine converts the decoded `machine:` mapping.
func (f *machineFile) machine() (apps.Machine, error) {
	const ambiguous = `scenario: machine.%s: 0 is ambiguous (0 means "inherit the default"); omit the key to inherit the SP2 default`
	var m apps.Machine
	if f.LatencyUS != nil {
		if m.LatencyUS = *f.LatencyUS; m.LatencyUS == 0 {
			return m, fmt.Errorf(ambiguous, "latency_us")
		}
	}
	if f.BandwidthMBs != nil {
		if m.BandwidthMBs = *f.BandwidthMBs; m.BandwidthMBs == 0 {
			return m, fmt.Errorf(ambiguous, "bandwidth_mbs")
		}
	}
	p := f.Perturb
	if p == nil {
		return m, nil
	}
	pert := &sim.Perturb{CPUFactor: p.CPU, JitterUS: p.JitterUS, JitterSeed: uint64(p.JitterSeed)}
	for i, l := range p.Links {
		if l.From == nil || l.To == nil {
			return m, fmt.Errorf(`scenario: machine.perturb.links[%d] needs "from" and "to"`, i)
		}
		pert.Links = append(pert.Links, sim.LinkPerturb{From: *l.From, To: *l.To,
			LatencyUS: float64(l.LatencyUS), BytesPerUS: float64(l.BandwidthMBs)})
	}
	if !pert.IsZero() {
		m.Perturb = pert
	}
	return m, nil
}

// checkShape checks one value of the generic shape against the Go type
// it decodes into, for what encoding/json does not: it matches keys
// case-insensitively (even with DisallowUnknownFields), and its kind
// errors name Go types, not the spec's key path. path names the value
// in messages ("procs[1]", "knobs.warp"); schema is the same path
// without list indices, naming the mapping an unknown key sits in.
func checkShape(v any, t reflect.Type, path, schema string) error {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	m, isMap := v.(map[string]any)
	l, isList := v.([]any)
	f, isNum := v.(float64)
	var ok bool
	switch t.Kind() {
	case reflect.Struct:
		if isMap {
			return checkFields(m, t, path, schema)
		}
	case reflect.Map:
		for _, k := range slices.Sorted(maps.Keys(m)) {
			if err := checkShape(m[k], t.Elem(), path+"."+k, schema); err != nil {
				return err
			}
		}
		ok = isMap
	case reflect.Slice:
		for i, e := range l {
			if err := checkShape(e, t.Elem(), fmt.Sprintf("%s[%d]", path, i), schema); err != nil {
				return err
			}
		}
		ok = isList
	case reflect.String:
		_, ok = v.(string)
	case reflect.Bool:
		_, ok = v.(bool)
	case reflect.Int, reflect.Int64:
		ok = isNum && f == float64(int(f))
	case reflect.Float64:
		ok = isNum && !math.IsNaN(f) && !math.IsInf(f, 0)
	}
	if !ok {
		return fmt.Errorf("scenario: %s must be %s (got %v)", path, kindNouns[t.Kind()], v)
	}
	return nil
}

var kindNouns = map[reflect.Kind]string{
	reflect.Struct: "a mapping", reflect.Map: "a mapping", reflect.Slice: "a list",
	reflect.String: "a string", reflect.Bool: "true or false",
	reflect.Int: "an integer", reflect.Int64: "an integer", reflect.Float64: "a number",
}

// checkFields checks a mapping against struct type t: every key must be
// exactly one of t's json tags (the smallest offender is reported, and
// before any value is looked at), then each present, non-null value is
// checked in field order. A null value is an absent key.
func checkFields(m map[string]any, t reflect.Type, path, schema string) error {
	fields := structFields[t]
	for _, k := range slices.Sorted(maps.Keys(m)) {
		if slices.ContainsFunc(fields, func(f field) bool { return f.tag == k }) {
			continue
		}
		if schema == "" {
			return fmt.Errorf("scenario: unknown key %q", k)
		}
		tags := make([]string, len(fields))
		for i, f := range fields {
			tags[i] = f.tag
		}
		return fmt.Errorf("scenario: unknown %s key %q (want %s)", schema, k, strings.Join(tags, ", "))
	}
	for _, f := range fields {
		if v := m[f.tag]; v != nil {
			if err := checkShape(v, f.typ, join(path, f.tag), join(schema, f.tag)); err != nil {
				return err
			}
		}
	}
	return nil
}

// field is one struct field's json tag and type.
type field struct {
	tag string
	typ reflect.Type
}

// structFields lists the fields of specFile and of every struct type
// below it, in order; filled once at start-up, read-only after.
var structFields = map[reflect.Type][]field{}

func init() { addFields(reflect.TypeFor[specFile]()) }

func addFields(t reflect.Type) {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Map {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || structFields[t] != nil {
		return
	}
	fs := make([]field, t.NumField())
	for i := range fs {
		f := t.Field(i)
		fs[i] = field{f.Tag.Get("json"), f.Type}
		addFields(f.Type)
	}
	structFields[t] = fs
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// spec validates the decoded file against the experiment schemas and
// the application registry and resolves it into its run request:
// canned params take the schema defaults (bench.Request), the memory
// experiment's sweep becomes the request's budget axis, and an app
// experiment defaults to procs [8] and all four variants.
func (f *specFile) spec() (*Spec, error) {
	if f.Sweep != nil && f.Sweep.Axis == "" {
		return nil, fmt.Errorf(`scenario: a sweep needs an "axis"`)
	}
	var machine apps.Machine
	if f.Machine != nil {
		var err error
		if machine, err = f.Machine.machine(); err != nil {
			return nil, err
		}
	}
	if f.Name == "" {
		return nil, fmt.Errorf(`scenario: missing required key "name"`)
	}
	if f.Version != 0 && f.Version != SpecVersion {
		return nil, fmt.Errorf("scenario %q: unsupported spec version %d (supported: %d)",
			f.Name, f.Version, SpecVersion)
	}
	if f.Experiment == "" {
		return nil, fmt.Errorf(`scenario %q: missing required key "experiment"`, f.Name)
	}
	s := &Spec{Name: f.Name, Description: f.Description, Variants: f.Variants,
		Assert: f.Assert, Repro: f.Repro}
	e, canned := bench.Canned(f.Experiment)
	if f.Experiment != "app" {
		// Unknown experiments, unknown params, and negative values.
		req, err := bench.Request(f.Experiment, f.Params)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %v", f.Name, err)
		}
		s.RunRequest = req
	}
	if f.Trace && canned && !e.Traceable {
		return nil, fmt.Errorf("scenario %q: the %s experiment does not support trace: true (its grids re-run one backend many times; see DESIGN.md §13)", f.Name, f.Experiment)
	}

	if canned {
		appOnly := []struct {
			key string
			set bool
		}{
			{"app", f.App != ""}, {"n", f.N != 0}, {"steps", f.Steps != 0},
			{"seed", f.Seed != 0}, {"procs", len(f.Procs) > 0},
			{"variants", len(f.Variants) > 0}, {"knobs", len(f.Knobs) > 0},
			{"machine", f.Machine != nil},
		}
		for _, k := range appOnly {
			if k.set {
				return nil, fmt.Errorf("scenario %q: key %q only applies to the app experiment", f.Name, k.key)
			}
		}
		if f.Sweep != nil {
			if e.SweepAxis == "" {
				return nil, fmt.Errorf(`scenario %q: key "sweep" only applies to the app and memory experiments`, f.Name)
			}
			if f.Sweep.Axis != e.SweepAxis {
				return nil, fmt.Errorf(`scenario %q: the %s experiment can only sweep %q (got %q)`,
					f.Name, f.Experiment, e.SweepAxis, f.Sweep.Axis)
			}
			s.BudgetSweepKB = f.Sweep.Values
		}
		if p := s.Params["procs"]; p < 1 || p > MaxProcs {
			return nil, fmt.Errorf("scenario %q: proc count %d out of range [1, %d]", f.Name, p, MaxProcs)
		}
	} else {
		if len(f.Params) > 0 {
			return nil, fmt.Errorf(`scenario %q: key "params" only applies to the table and memory experiments`, f.Name)
		}
		if f.App == "" {
			return nil, fmt.Errorf(`scenario %q: the app experiment needs "app"`, f.Name)
		}
		knobs, ok := apps.Knobs(f.App)
		if !ok {
			return nil, fmt.Errorf("scenario %q: unknown application %q (registered: %v)", f.Name, f.App, apps.Names())
		}
		if f.N <= 0 {
			return nil, fmt.Errorf(`scenario %q: the app experiment needs a positive "n" (got %d)`, f.Name, f.N)
		}
		for _, p := range f.Procs {
			if p < 1 || p > MaxProcs {
				return nil, fmt.Errorf("scenario %q: proc count %d out of range [1, %d]", f.Name, p, MaxProcs)
			}
		}
		for _, v := range f.Variants {
			if !slices.Contains(apps.Slots, v) {
				return nil, fmt.Errorf("scenario %q: unknown variant %q (want %s)",
					f.Name, v, strings.Join(apps.Slots, ", "))
			}
		}
		for _, k := range slices.Sorted(maps.Keys(f.Knobs)) {
			if !slices.Contains(knobs, k) {
				return nil, fmt.Errorf("scenario %q: %s does not declare knob %q (declares: %v)", f.Name, f.App, k, knobs)
			}
		}
		if f.Sweep != nil {
			if f.Sweep.Axis == "procs" {
				return nil, fmt.Errorf(`scenario %q: "procs" is not a sweep axis (give a procs list instead)`, f.Name)
			}
			if axes := bench.SweepAxes(); !slices.Contains(axes, f.Sweep.Axis) && !slices.Contains(knobs, f.Sweep.Axis) {
				return nil, fmt.Errorf("scenario %q: %s cannot sweep axis %q (axes: %s, and knobs %v)",
					f.Name, f.App, f.Sweep.Axis, strings.Join(axes, ", "), knobs)
			}
		}
		s.RunRequest = bench.RunRequest{Experiment: f.Experiment, App: f.App, N: f.N,
			Steps: f.Steps, Seed: f.Seed, Procs: f.Procs, Machine: machine}
		if len(f.Knobs) > 0 {
			s.Knobs = f.Knobs
		}
		if f.Sweep != nil {
			s.Sweep = &bench.SweepAxis{Axis: f.Sweep.Axis, Values: f.Sweep.Values}
		}
		if len(s.Procs) == 0 {
			s.Procs = []int{8}
		}
		if len(s.Variants) == 0 {
			s.Variants = slices.Clone(apps.Slots)
		}
		// The machine spec must be valid for every grid point, so it is
		// checked against the smallest requested cluster. The request
		// carries the jitter seed unsigned, so its sign is checked here.
		if m := f.Machine; m != nil && m.Perturb != nil && m.Perturb.JitterSeed < 0 {
			return nil, fmt.Errorf("scenario %q: machine: perturb.jitter_seed must be >= 0 (got %d)", f.Name, m.Perturb.JitterSeed)
		}
		if err := machine.Validate(slices.Min(s.Procs)); err != nil {
			return nil, fmt.Errorf("scenario %q: %v", f.Name, err)
		}
	}
	if f.Sweep != nil {
		if len(f.Sweep.Values) == 0 {
			return nil, fmt.Errorf("scenario %q: sweep over %q has no values", f.Name, f.Sweep.Axis)
		}
		for _, v := range f.Sweep.Values {
			if v <= 0 {
				return nil, fmt.Errorf("scenario %q: sweep value %d must be positive", f.Name, v)
			}
		}
	}

	for _, b := range f.Assert {
		if b.Metric == "" {
			return nil, fmt.Errorf(`scenario %q: assertion needs a "metric"`, f.Name)
		}
		if b.Min == nil && b.Max == nil {
			return nil, fmt.Errorf(`scenario %q: assertion on %q needs "min" and/or "max"`, f.Name, b.Metric)
		}
		if b.Min != nil && b.Max != nil && *b.Min > *b.Max {
			return nil, fmt.Errorf("scenario %q: assertion on %q has an empty band (min %g > max %g)",
				f.Name, b.Metric, *b.Min, *b.Max)
		}
	}
	s.Trace = f.Trace
	return s, nil
}
