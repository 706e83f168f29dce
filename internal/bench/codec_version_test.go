package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// The cross-version codec contract (DESIGN.md §15): unperturbed
// requests must keep producing the exact pre-perturbation
// runrequest/v1 bytes (content addresses, disk-cache directories,
// and goldens all hash them), perturbed requests must encode as
// runrequest/v2, and an all-zero perturbation must canonicalize back
// to v1.

// TestCanonicalV1BytesPinned pins the v1 encoding byte-for-byte (or,
// for the canned experiments, by content address). If this test fails,
// every existing content address changes — that is a cache-invalidating,
// golden-breaking event and must come with a version bump, not a silent
// edit. Each canned experiment is pinned twice: its default request and
// the CI-size request its shipped scenarios/<name>.yaml builds. Canned
// rows are built through Request from the params a spec would spell out,
// so a schema default that drifts changes the address and fails here.
func TestCanonicalV1BytesPinned(t *testing.T) {
	cases := []struct {
		name string
		req  RunRequest
		// params, for a canned row, are the Request overrides; the
		// resolved request must encode exactly like req.
		params map[string]int
		// want is the full canonical text, or a hex content address.
		want string
	}{
		{name: "app sweep",
			req: RunRequest{Experiment: "app", App: "moldyn", N: 256,
				Procs: []int{4}, Knobs: map[string]int{"update_every": 20},
				Machine: apps.Machine{LatencyUS: 200, BandwidthMBs: 40},
				Sweep:   &SweepAxis{Axis: "latency_us", Values: []int{100, 500}}},
			want: "runrequest/v1\n" +
				"experiment=app\n" +
				"app=moldyn\n" +
				"n=256\n" +
				"steps=0\n" +
				"seed=0\n" +
				"procs=4\n" +
				"knob.update_every=20\n" +
				"machine.latency_us=200\n" +
				"machine.bandwidth_mbs=40\n" +
				"sweep.axis=latency_us\n" +
				"sweep.values=100,500\n"},
		{name: "table1 default",
			req:    RunRequest{Experiment: "table1", Params: map[string]int{"n": 4096, "procs": 8, "steps": 40}},
			params: map[string]int{},
			want: "runrequest/v1\n" +
				"experiment=table1\n" +
				"param.n=4096\n" +
				"param.procs=8\n" +
				"param.steps=40\n" +
				"app=\n" +
				"n=0\n" +
				"steps=0\n" +
				"seed=0\n" +
				"procs=\n" +
				"machine.latency_us=0\n" +
				"machine.bandwidth_mbs=0\n"},
		// The served table1 address README.md quotes.
		{name: "table1 ci",
			req:    RunRequest{Experiment: "table1", Params: map[string]int{"n": 512, "procs": 8, "steps": 10}},
			params: map[string]int{"n": 512, "steps": 10},
			want:   "b8e97113a11ac5b978147c3cd0bd9acb78861e3d681af5e6cf222eee06213195"},
		{name: "table2 default",
			req:    RunRequest{Experiment: "table2", Params: map[string]int{"scale": 16, "procs": 8, "steps": 10, "partners": 100}},
			params: map[string]int{},
			want:   "daf867d47c46394eff798a5ef7f7d8ca17b74aa5f996769db6bca0a6f342bf8f"},
		{name: "table2 ci",
			req:    RunRequest{Experiment: "table2", Params: map[string]int{"scale": 2, "procs": 8, "steps": 4, "partners": 40}},
			params: map[string]int{"scale": 2, "steps": 4, "partners": 40},
			want:   "95bd8fdecd2d4dbf1026e5ae8592cdc92a2bf5f75b0790d874f1b6171856daec"},
		{name: "table3 default",
			req:    RunRequest{Experiment: "table3", Params: map[string]int{"n": 16384, "nnz": 24, "procs": 8, "steps": 12}},
			params: map[string]int{},
			want:   "325160318c7a9836d720fc59d58f5ab1e4c79ac30ba66574642cd39d91ea444c"},
		{name: "table3 ci",
			req:    RunRequest{Experiment: "table3", Params: map[string]int{"n": 2048, "nnz": 24, "procs": 8, "steps": 4}},
			params: map[string]int{"n": 2048, "steps": 4},
			want:   "9250aff91fc7f7861636d8f6be1313a6a3a92ab1b65bea5f64fad6cb802d7517"},
		{name: "table4 default",
			req: RunRequest{Experiment: "table4", Params: map[string]int{"cities": 11, "items": 2048, "procs": 8,
				"depth": 3, "batch": 4, "item_batch": 8}},
			params: map[string]int{},
			want:   "ff553954a2321ad3e13342d4f9d857067b4ecb1f5bab18a443b2dd9ecc9e233f"},
		{name: "table4 ci",
			req: RunRequest{Experiment: "table4", Params: map[string]int{"cities": 9, "items": 256, "procs": 8,
				"depth": 3, "batch": 4, "item_batch": 8}},
			params: map[string]int{"cities": 9, "items": 256},
			want:   "ca8c1f73a4e375cbb19ff6d14a7a65651fdd9bb01d4abe74e86885adef846ffa"},
		// scenarios/table5.yaml runs the defaults, so one row covers both.
		{name: "table5 default and ci",
			req: RunRequest{Experiment: "table5", Params: map[string]int{"procs": 8, "budget_kb": 12, "n": 512,
				"nbf": 2048, "spmv": 4096, "moldyn_steps": 10, "steps": 4}},
			params: map[string]int{},
			want:   "740d6ad98715f093c04b9d5b5223c18f7ac04d11803b031fcdfd6a3f002c4029"},
		{name: "memory default",
			req:    RunRequest{Experiment: "memory", Params: map[string]int{"n": 1024, "procs": 8}},
			params: map[string]int{},
			want:   "0da5f285f8b57a8a238d6b13f0a21abf92d27e79c4e7b26313d547dd1fba17d9"},
		{name: "memory ci",
			req:    RunRequest{Experiment: "memory", Params: map[string]int{"n": 512, "procs": 8}, BudgetSweepKB: []int{48, 16}},
			params: map[string]int{"n": 512},
			want:   "6c7e7b7c097f41a7caf690f02b1f61d5ef29c3f45cdd180d6145bbc22ea5d193"},
	}
	for _, c := range cases {
		got := string(c.req.Canonical())
		if strings.HasPrefix(c.want, "runrequest/") {
			if got != c.want {
				t.Errorf("%s: v1 canonical bytes changed:\n--- got ---\n%s--- want ---\n%s", c.name, got, c.want)
			}
		} else if key := c.req.Key().String(); key != c.want {
			t.Errorf("%s: content address changed: got %s, want %s\n%s", c.name, key, c.want, got)
		}
		if c.params == nil {
			continue
		}
		built, err := Request(c.req.Experiment, c.params)
		if err != nil {
			t.Fatalf("%s: Request: %v", c.name, err)
		}
		built.BudgetSweepKB = c.req.BudgetSweepKB
		if b := string(built.Canonical()); b != got {
			t.Errorf("%s: Request(%s, %v) encodes differently:\n--- got ---\n%s--- want ---\n%s",
				c.name, c.req.Experiment, c.params, b, got)
		}
	}
}

// TestCanonicalV2BytesPinned pins the v2 encoding: the perturb block
// sits between the machine fields and the sweep axis, links are
// sorted by (from, to) with latency before bandwidth, and floats use
// the shortest round-tripping spelling.
func TestCanonicalV2BytesPinned(t *testing.T) {
	cases := []struct {
		name string
		req  RunRequest
		want string
	}{
		{name: "every dimension",
			req: RunRequest{Experiment: "app", App: "moldyn", N: 256, Steps: 4,
				Procs: []int{4},
				Machine: apps.Machine{Perturb: &sim.Perturb{
					CPUFactor: []float64{1.3, 1},
					JitterUS:  5, JitterSeed: 7,
					Links: []sim.LinkPerturb{
						{From: 1, To: 0, LatencyUS: 170},
						{From: 0, To: 1, BytesPerUS: 20},
					}}}},
			want: "runrequest/v2\n" +
				"experiment=app\n" +
				"app=moldyn\n" +
				"n=256\n" +
				"steps=4\n" +
				"seed=0\n" +
				"procs=4\n" +
				"machine.latency_us=0\n" +
				"machine.bandwidth_mbs=0\n" +
				"perturb.cpu=1.3,1\n" +
				"perturb.jitter_us=5\n" +
				"perturb.jitter_seed=7\n" +
				"perturb.link.0-1.bandwidth_mbs=20\n" +
				"perturb.link.1-0.latency_us=170\n"},
		// Large integral link costs keep their integer spelling (no
		// exponent form).
		{name: "large link costs",
			req: RunRequest{Experiment: "app", App: "taskq", N: 64,
				Procs: []int{2},
				Machine: apps.Machine{Perturb: &sim.Perturb{
					Links: []sim.LinkPerturb{
						{From: 0, To: 1, LatencyUS: 2500000, BytesPerUS: 1000000},
					}}}},
			want: "runrequest/v2\n" +
				"experiment=app\n" +
				"app=taskq\n" +
				"n=64\n" +
				"steps=0\n" +
				"seed=0\n" +
				"procs=2\n" +
				"machine.latency_us=0\n" +
				"machine.bandwidth_mbs=0\n" +
				"perturb.link.0-1.latency_us=2500000\n" +
				"perturb.link.0-1.bandwidth_mbs=1000000\n"},
	}
	for _, c := range cases {
		if got := string(c.req.Canonical()); got != c.want {
			t.Errorf("%s: v2 canonical bytes changed:\n--- got ---\n%s--- want ---\n%s", c.name, got, c.want)
		}
	}
}

// TestZeroPerturbCanonicalizesToV1 is the content-address stability
// guarantee: a request carrying an all-zero perturbation block is the
// same experiment as one carrying none, so it must encode as v1 with
// an identical content address — not fragment the cache under a v2
// header that decodes to the same simulation.
func TestZeroPerturbCanonicalizesToV1(t *testing.T) {
	plain := RunRequest{Experiment: "app", App: "taskq", N: 64, Steps: 3,
		Procs: []int{2}, Machine: apps.Machine{LatencyUS: 200}}
	zero := plain
	zero.Machine.Perturb = &sim.Perturb{}

	if !strings.HasPrefix(string(zero.Canonical()), "runrequest/v1\n") {
		t.Errorf("all-zero perturbation encoded with header %q, want runrequest/v1",
			strings.SplitN(string(zero.Canonical()), "\n", 2)[0])
	}
	if !bytes.Equal(plain.Canonical(), zero.Canonical()) {
		t.Errorf("all-zero perturbation changed the canonical bytes:\n--- plain ---\n%s--- zero ---\n%s",
			plain.Canonical(), zero.Canonical())
	}
	if plain.Key() != zero.Key() {
		t.Error("all-zero perturbation changed the content address")
	}
}

// TestPerturbedCanonicalIsV2 checks the other direction of the
// content-derived header: any non-zero perturbation field forces v2,
// whatever else the request carries.
func TestPerturbedCanonicalIsV2(t *testing.T) {
	req := RunRequest{Experiment: "app", App: "moldyn",
		N: 256, Procs: []int{4},
		Machine: apps.Machine{Perturb: &sim.Perturb{CPUFactor: []float64{1.3}}}}
	if !strings.HasPrefix(string(req.Canonical()), "runrequest/v2\n") {
		t.Errorf("perturbed request encoded with header %q, want runrequest/v2",
			strings.SplitN(string(req.Canonical()), "\n", 2)[0])
	}
}
