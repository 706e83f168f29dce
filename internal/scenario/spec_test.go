package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestParseFullSpec decodes a spec exercising every field and checks
// the resulting structure, defaults included.
func TestParseFullSpec(t *testing.T) {
	spec, err := Parse([]byte(`
name: latency-sweep
description: chaos vs tmk as the wire slows down
experiment: app
app: moldyn
n: 256
steps: 4
seed: 7
procs: [2, 4]
variants: [chaos, tmk-opt]
knobs:
  update_every: 5
sweep:
  axis: latency_us
  values: [85, 170]
assert:
  - metric: "moldyn/latency_us=85, 2 procs/chaos/speedup"
    min: 0.1
    max: 64
repro: true
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	min, max := 0.1, 64.0
	want := &Spec{
		Name:        "latency-sweep",
		Description: "chaos vs tmk as the wire slows down",
		Variants:    []string{"chaos", "tmk-opt"},
		Assert: []Band{{
			Metric: "moldyn/latency_us=85, 2 procs/chaos/speedup",
			Min:    &min, Max: &max,
		}},
		Repro: true,
		RunRequest: bench.RunRequest{
			Experiment: "app",
			App:        "moldyn",
			N:          256,
			Steps:      4,
			Seed:       7,
			Procs:      []int{2, 4},
			Knobs:      map[string]int{"update_every": 5},
			Sweep:      &bench.SweepAxis{Axis: "latency_us", Values: []int{85, 170}},
		},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("Parse:\n got  %+v\n want %+v", spec, want)
	}
}

// TestParseJSONEquivalence checks the JSON path lands on the identical
// Spec as the YAML path — one schema, two syntaxes.
func TestParseJSONEquivalence(t *testing.T) {
	fromYAML, err := Parse([]byte(`
name: t1
experiment: table1
params:
  n: 512
  steps: 10
assert:
  - metric: moldyn/Every 20 iterations/seq/speedup
    min: 1
    max: 1
`))
	if err != nil {
		t.Fatalf("Parse YAML: %v", err)
	}
	fromJSON, err := ParseJSON([]byte(`{
		"name": "t1",
		"experiment": "table1",
		"params": {"n": 512, "steps": 10},
		"assert": [{"metric": "moldyn/Every 20 iterations/seq/speedup", "min": 1, "max": 1}]
	}`))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Fatalf("YAML and JSON decode differently:\n yaml %+v\n json %+v", fromYAML, fromJSON)
	}
}

// TestSpecDefaults checks an app spec's procs/variants defaults and a
// table spec's param fallbacks (the command-flag defaults).
func TestSpecDefaults(t *testing.T) {
	app, err := Parse([]byte("name: a\nexperiment: app\napp: moldyn\nn: 64\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(app.Procs, []int{8}) {
		t.Errorf("default procs = %v, want [8]", app.Procs)
	}
	if !reflect.DeepEqual(app.Variants, []string{"seq", "chaos", "tmk", "tmk-opt"}) {
		t.Errorf("default variants = %v", app.Variants)
	}

	tbl, err := Parse([]byte("name: t\nexperiment: table2\nparams:\n  scale: 2\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if want := map[string]int{"scale": 2, "procs": 8, "steps": 10, "partners": 100}; !reflect.DeepEqual(tbl.Params, want) {
		t.Errorf("Params = %v, want the flag defaults filled in: %v", tbl.Params, want)
	}

	if _, err := Parse([]byte("name: v\nexperiment: table1\nversion: 1\n")); err != nil {
		t.Fatalf("Parse rejected an explicit version 1: %v", err)
	}
}

// TestValidationErrors is the satellite's table: every malformed spec
// fails with the exact message, so a typo'd scenario file tells its
// author precisely what to fix.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"missing name",
			"experiment: table1\n",
			`scenario: missing required key "name"`},
		{"missing experiment",
			"name: x\n",
			`scenario "x": missing required key "experiment"`},
		{"unknown experiment",
			"name: x\nexperiment: table9\n",
			`scenario "x": unknown experiment "table9" (want app, memory, table1, table2, table3, table4, or table5)`},
		{"unknown top-level key",
			"name: x\nexperiment: table1\nprocz: 8\n",
			`scenario: unknown key "procz"`},
		{"unknown application",
			"name: x\nexperiment: app\napp: nosuch\nn: 64\n",
			`scenario "x": unknown application "nosuch" (registered: [moldyn nbf spmv taskq tsp unstruct])`},
		{"unknown variant",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nvariants: [chaos, fast]\n",
			`scenario "x": unknown variant "fast" (want seq, chaos, tmk, tmk-opt)`},
		{"unknown knob",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nknobs:\n  warp: 1\n",
			`scenario "x": moldyn does not declare knob "warp" (declares: [no_aggregation table_budget_kb update_every])`},
		{"malformed sweep axis",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nsweep:\n  axis: warp\n  values: [1]\n",
			`scenario "x": moldyn cannot sweep axis "warp" (axes: n, steps, latency_us, bandwidth_mbs, and knobs [no_aggregation table_budget_kb update_every])`},
		{"procs is not an axis",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nsweep:\n  axis: procs\n  values: [2, 4]\n",
			`scenario "x": "procs" is not a sweep axis (give a procs list instead)`},
		{"sweep without values",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nsweep:\n  axis: n\n",
			`scenario "x": sweep over "n" has no values`},
		{"proc count too small",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nprocs: [0]\n",
			`scenario "x": proc count 0 out of range [1, 1024]`},
		{"proc count too large",
			"name: x\nexperiment: table1\nparams:\n  procs: 2048\n",
			`scenario "x": proc count 2048 out of range [1, 1024]`},
		{"empty assertion band",
			"name: x\nexperiment: table1\nassert:\n  - metric: m\n    min: 2\n    max: 1\n",
			`scenario "x": assertion on "m" has an empty band (min 2 > max 1)`},
		{"band without min or max",
			"name: x\nexperiment: table1\nassert:\n  - metric: m\n",
			`scenario "x": assertion on "m" needs "min" and/or "max"`},
		{"band without metric",
			"name: x\nexperiment: table1\nassert:\n  - min: 1\n",
			`scenario "x": assertion needs a "metric"`},
		{"unknown param",
			"name: x\nexperiment: table1\nparams:\n  cities: 9\n",
			`scenario "x": experiment table1 does not take param "cities" (takes: [n procs steps])`},
		{"negative param",
			"name: x\nexperiment: table1\nparams:\n  n: -4\n",
			`scenario "x": param "n" must be non-negative (got -4)`},
		{"app key on a table experiment",
			"name: x\nexperiment: table1\napp: moldyn\n",
			`scenario "x": key "app" only applies to the app experiment`},
		{"sweep on a table experiment",
			"name: x\nexperiment: table1\nsweep:\n  axis: n\n  values: [1]\n",
			`scenario "x": key "sweep" only applies to the app and memory experiments`},
		{"unsupported spec version",
			"name: x\nexperiment: table1\nversion: 2\n",
			`scenario "x": unsupported spec version 2 (supported: 1)`},
		{"memory sweep on a foreign axis",
			"name: x\nexperiment: memory\nsweep:\n  axis: n\n  values: [512]\n",
			`scenario "x": the memory experiment can only sweep "table_budget_kb" (got "n")`},
		{"memory sweep without values",
			"name: x\nexperiment: memory\nsweep:\n  axis: table_budget_kb\n",
			`scenario "x": sweep over "table_budget_kb" has no values`},
		{"memory sweep with a non-positive budget",
			"name: x\nexperiment: memory\nsweep:\n  axis: table_budget_kb\n  values: [48, 0]\n",
			`scenario "x": sweep value 0 must be positive`},
		{"params on an app experiment",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nparams:\n  n: 64\n",
			`scenario "x": key "params" only applies to the table and memory experiments`},
		{"app without app name",
			"name: x\nexperiment: app\nn: 64\n",
			`scenario "x": the app experiment needs "app"`},
		{"app without size",
			"name: x\nexperiment: app\napp: moldyn\n",
			`scenario "x": the app experiment needs a positive "n" (got 0)`},
		{"non-integer size",
			"name: x\nexperiment: app\napp: moldyn\nn: 1.5\n",
			`scenario: n must be an integer (got 1.5)`},
		{"non-positive sweep value",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nsweep:\n  axis: n\n  values: [64, 0]\n",
			`scenario "x": sweep value 0 must be positive`},
		{"unknown sweep key",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nsweep:\n  axis: n\n  step: 2\n",
			`scenario: unknown sweep key "step" (want axis, values)`},
		{"unknown assert key",
			"name: x\nexperiment: table1\nassert:\n  - metric: m\n    floor: 1\n",
			`scenario: unknown assert key "floor" (want metric, min, max)`},
		{"case-variant top-level key",
			"NAME: x\nexperiment: table1\n",
			`scenario: unknown key "NAME"`},
		{"case-variant list key",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nProcs: [3]\n",
			`scenario: unknown key "Procs"`},
		{"case-variant machine key",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nmachine:\n  Latency_US: 5\n",
			`scenario: unknown machine key "Latency_US" (want latency_us, bandwidth_mbs, perturb)`},
		{"case-variant top-level key in JSON",
			`{"name": "x", "Name": "y", "experiment": "table1"}`,
			`scenario: unknown key "Name"`},
		{"case-variant list key in JSON",
			`{"name": "x", "experiment": "app", "app": "moldyn", "n": 64, "Procs": [3]}`,
			`scenario: unknown key "Procs"`},
		{"case-variant machine key in JSON",
			`{"name": "x", "experiment": "app", "app": "moldyn", "n": 64, "machine": {"Latency_US": 5}}`,
			`scenario: unknown machine key "Latency_US" (want latency_us, bandwidth_mbs, perturb)`},
		{"case-variant assert key in JSON",
			`{"name": "x", "experiment": "table1", "assert": [{"Metric": "m", "min": 1}]}`,
			`scenario: unknown assert key "Metric" (want metric, min, max)`},
		{"name not a string",
			"name: 3\nexperiment: table1\n",
			`scenario: name must be a string (got 3)`},
		{"procs not a list",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nprocs: 4\n",
			`scenario: procs must be a list (got 4)`},
		{"knobs not a mapping",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nknobs: [1]\n",
			`scenario: knobs must be a mapping (got [1])`},
		{"repro not a bool",
			"name: x\nexperiment: table1\nrepro: \"yes\"\n",
			`scenario: repro must be true or false (got yes)`},
		{"machine not a mapping",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nmachine: 5\n",
			`scenario: machine must be a mapping (got 5)`},
		{"non-integer knob",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nknobs:\n  warp: 1.5\n",
			`scenario: knobs.warp must be an integer (got 1.5)`},
		{"non-integer proc count",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nprocs: [2, 2.5]\n",
			`scenario: procs[1] must be an integer (got 2.5)`},
		{"null proc count",
			"name: x\nexperiment: app\napp: moldyn\nn: 64\nprocs: [2, null]\n",
			`scenario: procs[1] must be an integer (got <nil>)`},
		{"non-integer link endpoint in JSON",
			`{"name": "x", "experiment": "app", "app": "moldyn", "n": 64, "machine": {"perturb": {"links": [{"from": "a", "to": 1}]}}}`,
			`scenario: machine.perturb.links[0].from must be an integer (got a)`},
		{"NaN band edge",
			"name: x\nexperiment: table1\nassert:\n  - metric: m\n    min: NaN\n",
			`scenario: assert[0].min must be a number (got NaN)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A document opening with "{" is JSON: the YAML subset
			// rejects flow mappings, so no YAML row can start that way.
			parse := Parse
			if strings.HasPrefix(tc.in, "{") {
				parse = ParseJSON
			}
			_, err := parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted:\n%s", tc.in)
			}
			if err.Error() != tc.want {
				t.Fatalf("Parse error:\n got  %q\n want %q", err, tc.want)
			}
		})
	}
}
