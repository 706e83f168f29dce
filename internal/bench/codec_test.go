package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// codecRequests is a spread of requests covering every optional field
// of the canonical grammar: canned params, app fields with knobs and
// machine overrides, a sweep axis, and the budget axis.
func codecRequests() map[string]RunRequest {
	return map[string]RunRequest{
		"table1": canned("table1", map[string]int{"n": 512, "procs": 8, "steps": 10}),
		"table4": canned("table4", map[string]int{"cities": 10, "items": 96, "procs": 4,
			"depth": 4, "batch": 4, "item_batch": 8}),
		"memory+budget": canned("memory", map[string]int{"n": 512, "procs": 8}, 48, 16),
		"app": {Experiment: "app", App: "taskq", N: 64, Steps: 3, Seed: 7,
			Procs: []int{2, 4}, Knobs: map[string]int{"batch": 8}},
		"app+sweep+machine": {Experiment: "app", App: "moldyn", N: 256,
			Procs: []int{4}, Knobs: map[string]int{"update_every": 20},
			Machine: apps.Machine{LatencyUS: 200, BandwidthMBs: 40},
			Sweep:   &SweepAxis{Axis: "latency_us", Values: []int{100, 500}}},
		// The runrequest/v2 shapes: a perturbation block forces the v2
		// header (codec_version_test.go pins the exact bytes).
		"app+perturb-cpu": {Experiment: "app", App: "moldyn", N: 256, Steps: 4,
			Procs:   []int{4},
			Machine: apps.Machine{Perturb: &sim.Perturb{CPUFactor: []float64{1.3, 1, 1, 1}}}},
		"app+perturb-full": {Experiment: "app", App: "nbf", N: 512, Steps: 2,
			Procs: []int{4, 8}, Knobs: map[string]int{"partners": 24},
			Machine: apps.Machine{LatencyUS: 200, Perturb: &sim.Perturb{
				CPUFactor: []float64{1.15, 1, 0.9},
				JitterUS:  5, JitterSeed: 7,
				Links: []sim.LinkPerturb{
					{From: 1, To: 0, LatencyUS: 170},
					{From: 0, To: 1, LatencyUS: 340, BytesPerUS: 20},
				}}},
			Sweep: &SweepAxis{Axis: "latency_us", Values: []int{100, 500}}},
	}
}

// entryOracle is the disk entry as a struct: json.Marshal of it is
// the payload EncodeEntry has always written.
type entryOracle struct {
	Request RunRequest `json:"request"`
	Result  *RunResult `json:"result"`
}

// TestEntryCodecRoundTrip checks the disk entry's contract: for every
// request shape, the payload is the struct oracle's bytes with the
// result's span holding EncodeResult's, the request decoded from an
// entry filed under its key re-encodes to the same canonical bytes
// (and therefore the same key), and the result and its span come back
// with it.
func TestEntryCodecRoundTrip(t *testing.T) {
	res := &RunResult{Experiment: "app", Metrics: map[string]float64{"x": 1.5}}
	wantResult, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range codecRequests() {
		payload, result, err := EncodeEntry(req, res)
		if err != nil {
			t.Fatalf("%s: EncodeEntry: %v", name, err)
		}
		if want, _ := json.Marshal(entryOracle{req, res}); !bytes.Equal(payload, want) {
			t.Errorf("%s: payload\n%s\nwant the struct encoding\n%s", name, payload, want)
		}
		if !bytes.Equal(result, wantResult) {
			t.Errorf("%s: encoded result span %s, want %s", name, result, wantResult)
		}
		dec, dres, dresult, err := DecodeEntry(req.Key(), payload)
		if err != nil {
			t.Errorf("%s: DecodeEntry: %v", name, err)
			continue
		}
		if !bytes.Equal(dresult, wantResult) {
			t.Errorf("%s: decoded result span %s, want %s", name, dresult, wantResult)
		}
		if got, want := dec.Canonical(), req.Canonical(); !bytes.Equal(got, want) {
			t.Errorf("%s: round trip changed the encoding:\n--- in ---\n%s--- out ---\n%s",
				name, want, got)
		}
		if dres.Experiment != res.Experiment || dres.Metrics["x"] != 1.5 {
			t.Errorf("%s: round trip changed the result: %+v", name, dres)
		}
	}

	// The memory experiment's structured result renders the same bytes
	// from a decoded entry as from the run.
	req := codecRequests()["memory+budget"]
	mres := memoryFixture()
	requireNonZero(t, "MemSweepData", reflect.ValueOf(*mres.Mem))
	payload, _, err := EncodeEntry(req, mres)
	if err != nil {
		t.Fatal(err)
	}
	dreq, dres, _, err := DecodeEntry(req.Key(), payload)
	if err != nil {
		t.Fatal(err)
	}
	var before, after bytes.Buffer
	if err := PresentResult(&before, req, mres); err != nil {
		t.Fatal(err)
	}
	if err := PresentResult(&after, dreq, dres); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("memory rendering changed across the entry round trip:\n--- run ---\n%s--- decoded ---\n%s",
			before.String(), after.String())
	}
}

// memoryFixture is a memory-experiment result with every field of its
// sweep data set, so a field the entry codec drops shows in the
// rendering or in requireNonZero.
func memoryFixture() *RunResult {
	return &RunResult{Experiment: "memory",
		Mem: &MemSweepData{
			Moldyn: []PlanRun{{BudgetKB: 64, Plan: mem.TablePlan{Kind: chaos.Paged, CachePages: 5},
				TtableMsgs: 12, TtableMB: 0.25, TableKB: 32.5, PeakKB: 80.5, TimeSec: 0.5}},
			Spmv: []PlanRun{{BudgetKB: 16, Plan: mem.TablePlan{Kind: chaos.Paged, CachePages: 3},
				TtableMsgs: 6, TtableMB: 0.125, TableKB: 12.5, PeakKB: 30.25, TimeSec: 0.25}},
			Anecdote: PlanRun{BudgetKB: 16, Plan: mem.TablePlan{Kind: chaos.Paged, CachePages: 4},
				TtableMsgs: 878, TtableMB: 85, TableKB: 16.5, PeakKB: 512.5, TimeSec: 1.75},
			Budget: []PlanRun{{BudgetKB: 48, Plan: mem.TablePlan{Kind: chaos.Paged, CachePages: 2},
				TtableMsgs: 40, TtableMB: 3.5, TableKB: 20.5, PeakKB: 47.25, TimeSec: 1.5}},
		},
		Metrics: map[string]float64{"memory/anecdote/ttable_msgs": 878}}
}

// requireNonZero fails on any zero-valued leaf under v.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			requireNonZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("fixture leaves %s empty", path)
		}
		for i := range v.Len() {
			requireNonZero(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	default:
		if v.IsZero() {
			t.Errorf("fixture leaves %s zero", path)
		}
	}
}

// TestDecodeEntryRejectsUnservable checks the entry decoder refuses
// anything that is not the request filed under the key: malformed
// JSON, an older result-only payload, a well-formed entry for a
// different request, an entry with a result field this build does not
// know, and trailing bytes after the entry.
func TestDecodeEntryRejectsUnservable(t *testing.T) {
	req := canned("table1", map[string]int{"n": 64, "procs": 2, "steps": 2})
	res := &RunResult{Experiment: "table1"}
	resultOnly, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	other := canned("table1", map[string]int{"n": 128, "procs": 2, "steps": 2})
	wrongKey, _, err := EncodeEntry(other, res)
	if err != nil {
		t.Fatal(err)
	}
	valid, _, err := EncodeEntry(req, res)
	if err != nil {
		t.Fatal(err)
	}
	// An entry from a build whose result carried a field this build
	// lacks: serving it would drop that field.
	extra := bytes.Replace(valid, []byte(`"result":{`), []byte(`"result":{"Extra":1,`), 1)
	bad := map[string][]byte{
		"empty":         nil,
		"not json":      []byte("runrequest/v1\n"),
		"result only":   resultOnly,
		"wrong key":     wrongKey,
		"unknown field": extra,
		"trailing data": append(valid, '}'),
	}
	for name, b := range bad {
		if _, _, _, err := DecodeEntry(req.Key(), b); err == nil {
			t.Errorf("%s: DecodeEntry accepted an unservable entry", name)
		}
	}
}

// TestResultCodecRoundTrip runs one tiny app experiment end-to-end
// and checks (a) the JSON result codec round-trips, (b) the decoded
// result renders byte-identically to the original through
// PresentResult — the disk tier's cold-start contract — and (c)
// SizeBytes is positive and matches the encoding it approximates.
func TestResultCodecRoundTrip(t *testing.T) {
	req := RunRequest{Experiment: "app", App: "taskq", N: 64, Procs: []int{2}}
	res, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	payload, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if res.SizeBytes() != int64(len(payload)) {
		t.Errorf("SizeBytes = %d, payload length = %d", res.SizeBytes(), len(payload))
	}

	dec, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	payload2, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Error("result encoding not stable across a decode/encode cycle")
	}

	var orig, reread bytes.Buffer
	if err := PresentResult(&orig, req, res); err != nil {
		t.Fatal(err)
	}
	if err := PresentResult(&reread, req, dec); err != nil {
		t.Fatal(err)
	}
	if orig.String() != reread.String() {
		t.Errorf("decoded result renders differently:\n--- original ---\n%s--- decoded ---\n%s",
			orig.String(), reread.String())
	}
	if orig.Len() == 0 {
		t.Error("PresentResult rendered nothing")
	}
}

// TestPresentResultMismatch checks the dispatch refuses a request /
// result experiment mismatch instead of rendering garbage.
func TestPresentResultMismatch(t *testing.T) {
	req := canned("table1", map[string]int{"n": 64, "procs": 2, "steps": 2})
	res := &RunResult{Experiment: "table2"}
	var buf bytes.Buffer
	if err := PresentResult(&buf, req, res); err == nil {
		t.Error("PresentResult accepted a mismatched experiment")
	}
}
