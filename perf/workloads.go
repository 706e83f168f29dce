package main

import (
	"embed"
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/scenario"
)

// The workloads are spec documents in the format `scenario run` and
// POST /v1/runs accept, embedded so the benchmark's inputs cannot move
// with the repo's own scenario corpus. --seed is appended to every
// document as its `seed:` key; nothing else reaches the program.
//
//go:embed testdata/specs
var specFS embed.FS

// workloadNames lists the workloads in the order a full run executes
// them; BENCHMARK.json names the same four.
var workloadNames = []string{"irregular_tables", "lock_scaling", "paper_scale", "service_mix"}

func isBatch(workload string) bool { return workload != "service_mix" }

// doc is one spec document of a workload.
type doc struct {
	name string // file name without extension
	body []byte // YAML, newline-terminated, no seed key
}

func loadDocs(workload string) ([]doc, error) {
	dir := "testdata/specs/" + workload
	des, err := specFS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	sort.Slice(des, func(i, j int) bool { return des[i].Name() < des[j].Name() })
	docs := make([]doc, 0, len(des))
	for _, de := range des {
		body, err := specFS.ReadFile(dir + "/" + de.Name())
		if err != nil {
			return nil, err
		}
		name := de.Name()
		docs = append(docs, doc{name: name[:len(name)-len(".yaml")], body: body})
	}
	return docs, nil
}

// seeded returns the document with a seed key appended — the same
// device cmd/simload uses to fabricate distinct content addresses.
func seeded(body []byte, seed int64) []byte {
	return append(append([]byte(nil), body...), fmt.Sprintf("seed: %d\n", seed)...)
}

// requestOf parses and validates a seeded document through the
// user-facing loader and resolves it to the canonical request.
func requestOf(body []byte) (bench.RunRequest, error) {
	spec, err := scenario.Parse(body)
	if err != nil {
		return bench.RunRequest{}, err
	}
	return spec.Request(), nil
}

// shrink cuts a request to test scale (-quick): the same documents and
// code paths at sizes that simulate in milliseconds. Timings at this
// scale mean nothing; only correctness and metric plumbing are checked.
func shrink(req *bench.RunRequest) {
	capTo := func(v *int, max int) {
		if *v > max {
			*v = max
		}
	}
	maxN := 128
	if req.App == "tsp" {
		maxN = 7
	}
	capTo(&req.N, maxN)
	capTo(&req.Steps, 2)
	procs := req.Procs[:0:0]
	for _, p := range req.Procs {
		capTo(&p, 4)
		if len(procs) == 0 || procs[len(procs)-1] != p {
			procs = append(procs, p)
		}
	}
	req.Procs = procs
	if req.Sweep != nil && req.Sweep.Axis == "n" {
		vals := make([]int, len(req.Sweep.Values))
		for i, v := range req.Sweep.Values {
			vals[i] = v / 16
		}
		req.Sweep = &bench.SweepAxis{Axis: "n", Values: vals}
	}
}
