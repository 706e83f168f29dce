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
	// Sweep is the swept axis: for an app experiment the run grid is
	// the cross product of its values and the procs list; the memory
	// experiment sweeps only table_budget_kb.
	Sweep *bench.SweepAxis
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

// Param returns a canned experiment parameter, falling back to the
// schema default.
func (s *Spec) Param(name string) int {
	if v, ok := s.Params[name]; ok {
		return v
	}
	e, _ := bench.Canned(s.Experiment)
	return e.Params[name]
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
// and converted.
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
	s := &Spec{Version: f.Version, Name: f.Name, Description: f.Description,
		Experiment: f.Experiment, Params: f.Params, Repro: f.Repro, Trace: f.Trace,
		App: f.App, N: f.N, Steps: f.Steps, Seed: f.Seed, Procs: f.Procs,
		Variants: f.Variants, Knobs: f.Knobs, Assert: f.Assert}
	if f.Sweep != nil {
		if f.Sweep.Axis == "" {
			return nil, fmt.Errorf(`scenario: a sweep needs an "axis"`)
		}
		s.Sweep = &bench.SweepAxis{Axis: f.Sweep.Axis, Values: f.Sweep.Values}
	}
	if f.Machine != nil {
		s.machineSet = true
		if s.Machine, err = f.Machine.machine(); err != nil {
			return nil, err
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
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
	pert := &apps.Perturb{CPU: p.CPU, JitterUS: p.JitterUS, JitterSeed: p.JitterSeed}
	for i, l := range p.Links {
		if l.From == nil || l.To == nil {
			return m, fmt.Errorf(`scenario: machine.perturb.links[%d] needs "from" and "to"`, i)
		}
		pert.Links = append(pert.Links, apps.LinkOverride{From: *l.From, To: *l.To,
			LatencyUS: l.LatencyUS, BandwidthMBs: l.BandwidthMBs})
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
			if !slices.Contains(apps.Slots, v) {
				return fmt.Errorf("scenario %q: unknown variant %q (want %s)",
					s.Name, v, strings.Join(apps.Slots, ", "))
			}
		}
		for _, k := range slices.Sorted(maps.Keys(s.Knobs)) {
			if !slices.Contains(knobs, k) {
				return fmt.Errorf("scenario %q: %s does not declare knob %q (declares: %v)", s.Name, s.App, k, knobs)
			}
		}
		if s.Sweep != nil {
			if s.Sweep.Axis == "procs" {
				return fmt.Errorf(`scenario %q: "procs" is not a sweep axis (give a procs list instead)`, s.Name)
			}
			if axes := bench.SweepAxes(); !slices.Contains(axes, s.Sweep.Axis) && !slices.Contains(knobs, s.Sweep.Axis) {
				return fmt.Errorf("scenario %q: %s cannot sweep axis %q (axes: %s, and knobs %v)",
					s.Name, s.App, s.Sweep.Axis, strings.Join(axes, ", "), knobs)
			}
		}
		if len(s.Procs) == 0 {
			s.Procs = []int{8}
		}
		if len(s.Variants) == 0 {
			s.Variants = slices.Clone(apps.Slots)
		}
		// The machine spec must be valid for every grid point, so it is
		// checked against the smallest requested cluster.
		if err := s.Machine.Validate(slices.Min(s.Procs)); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	if s.Sweep != nil {
		if len(s.Sweep.Values) == 0 {
			return fmt.Errorf("scenario %q: sweep over %q has no values", s.Name, s.Sweep.Axis)
		}
		for _, v := range s.Sweep.Values {
			if v <= 0 {
				return fmt.Errorf("scenario %q: sweep value %d must be positive", s.Name, v)
			}
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
