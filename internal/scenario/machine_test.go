package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// TestParseMachineSpec decodes the full structured machine mapping —
// uniform overrides plus every perturb dimension — and checks the
// request it resolves to carries it as an apps.Machine with the
// simulator's perturbation block.
func TestParseMachineSpec(t *testing.T) {
	spec, err := Parse([]byte(`
name: m
experiment: app
app: moldyn
n: 256
procs: [4]
machine:
  latency_us: 170
  bandwidth_mbs: 20
  perturb:
    cpu: [1.3, 1, 0.9, 1]
    links:
      - from: 1
        to: 0
        latency_us: 340
      - from: 0
        to: 1
        bandwidth_mbs: 10
    jitter_us: 5
    jitter_seed: 7
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := apps.Machine{LatencyUS: 170, BandwidthMBs: 20, Perturb: &sim.Perturb{
		CPUFactor: []float64{1.3, 1, 0.9, 1},
		Links: []sim.LinkPerturb{
			{From: 1, To: 0, LatencyUS: 340},
			{From: 0, To: 1, BytesPerUS: 10},
		},
		JitterUS: 5, JitterSeed: 7,
	}}
	if !reflect.DeepEqual(spec.Machine, want) {
		t.Fatalf("Machine:\n got  %+v (perturb %+v)\n want %+v (perturb %+v)",
			spec.Machine, spec.Machine.Perturb, want, want.Perturb)
	}

	if c := string(spec.Request().Canonical()); !strings.HasPrefix(c, "runrequest/v2\n") {
		t.Errorf("perturbed spec's request encodes as %q, want a runrequest/v2 header",
			strings.SplitN(c, "\n", 2)[0])
	}
}

// TestParseMachineWithoutPerturbStaysV1: a machine mapping with only
// uniform overrides must keep the request on the v1 encoding — the
// compatibility half of the version redesign.
func TestParseMachineWithoutPerturbStaysV1(t *testing.T) {
	spec, err := Parse([]byte("name: m\nexperiment: app\napp: moldyn\nn: 256\nmachine:\n  latency_us: 170\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Machine.Perturbed() {
		t.Error("uniform machine mapping reports Perturbed")
	}
	if !strings.HasPrefix(string(spec.Request().Canonical()), "runrequest/v1\n") {
		t.Error("uniform machine spec's request does not encode as runrequest/v1")
	}
}

// TestMachineSpecErrors is the machine mapping's rejection table: the
// ambiguous-zero trap, vocabulary typos, malformed links, and the
// apps.Machine.Validate errors surfaced with the scenario name.
func TestMachineSpecErrors(t *testing.T) {
	app := "name: x\nexperiment: app\napp: moldyn\nn: 64\nprocs: [4]\n"
	cases := []struct {
		name, in, want string
	}{
		{"machine on a canned experiment",
			"name: x\nexperiment: table1\nmachine:\n  latency_us: 170\n",
			`scenario "x": key "machine" only applies to the app experiment`},
		{"explicit zero latency",
			app + "machine:\n  latency_us: 0\n",
			`scenario: machine.latency_us: 0 is ambiguous (0 means "inherit the default"); omit the key to inherit the SP2 default`},
		{"explicit zero bandwidth",
			app + "machine:\n  bandwidth_mbs: 0\n",
			`scenario: machine.bandwidth_mbs: 0 is ambiguous (0 means "inherit the default"); omit the key to inherit the SP2 default`},
		{"unknown machine key",
			app + "machine:\n  latencyus: 170\n",
			`scenario: unknown machine key "latencyus" (want latency_us, bandwidth_mbs, perturb)`},
		{"unknown perturb key",
			app + "machine:\n  perturb:\n    cpus: [1.3]\n",
			`scenario: unknown machine.perturb key "cpus" (want cpu, links, jitter_us, jitter_seed)`},
		{"unknown link key",
			app + "machine:\n  perturb:\n    links:\n      - from: 0\n        to: 1\n        lat: 5\n",
			`scenario: unknown machine.perturb.links key "lat" (want from, to, latency_us, bandwidth_mbs)`},
		{"link without endpoints",
			app + "machine:\n  perturb:\n    links:\n      - latency_us: 170\n",
			`scenario: machine.perturb.links[0] needs "from" and "to"`},
		{"too many cpu factors",
			app + "machine:\n  perturb:\n    cpu: [1, 1, 1, 1, 1]\n",
			`scenario "x": machine: perturb.cpu lists 5 factors for 4 procs`},
		{"non-positive cpu factor",
			app + "machine:\n  perturb:\n    cpu: [1.3, 0]\n",
			`scenario "x": machine: perturb.cpu[1] must be positive (got 0)`},
		{"no-op link",
			app + "machine:\n  perturb:\n    links:\n      - from: 0\n        to: 1\n",
			`scenario "x": machine: perturb link 0->1 overrides nothing (set latency_us or bandwidth_mbs)`},
		{"self link",
			app + "machine:\n  perturb:\n    links:\n      - from: 1\n        to: 1\n        latency_us: 170\n",
			`scenario "x": machine: perturb link 1->1 is a self-link`},
		{"out-of-range link",
			app + "machine:\n  perturb:\n    links:\n      - from: 0\n        to: 4\n        latency_us: 170\n",
			`scenario "x": machine: perturb link 0->4 out of range for 4 procs`},
		{"duplicate link",
			app + "machine:\n  perturb:\n    links:\n      - from: 0\n        to: 1\n        latency_us: 170\n      - from: 0\n        to: 1\n        bandwidth_mbs: 20\n",
			`scenario "x": machine: duplicate perturb link 0->1`},
		{"negative jitter",
			app + "machine:\n  perturb:\n    jitter_us: -1\n",
			`scenario "x": machine: perturb.jitter_us must be >= 0 (got -1)`},
		{"negative jitter seed",
			app + "machine:\n  perturb:\n    jitter_seed: -1\n",
			`scenario "x": machine: perturb.jitter_seed must be >= 0 (got -1)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted:\n%s", tc.in)
			}
			if err.Error() != tc.want {
				t.Fatalf("Parse error:\n got  %q\n want %q", err, tc.want)
			}
		})
	}
}

// TestMachineValidatedAgainstSmallestGrid: the perturbation must be
// valid at every procs grid point, so the check runs against the
// smallest cluster in the list.
func TestMachineValidatedAgainstSmallestGrid(t *testing.T) {
	_, err := Parse([]byte("name: x\nexperiment: app\napp: moldyn\nn: 64\nprocs: [8, 2]\nmachine:\n  perturb:\n    cpu: [1.3, 1, 1, 1]\n"))
	if err == nil {
		t.Fatal("Parse accepted 4 CPU factors for a grid whose smallest point has 2 procs")
	}
	want := `scenario "x": machine: perturb.cpu lists 4 factors for 2 procs`
	if err.Error() != want {
		t.Errorf("Parse error:\n got  %q\n want %q", err, want)
	}
}
