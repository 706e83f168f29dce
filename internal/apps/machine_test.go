package apps

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestMachineValidate walks every rejection path of the structured
// machine spec plus the accepted shapes, pinning the error wording the
// scenario validator and registry surface to spec authors.
func TestMachineValidate(t *testing.T) {
	cases := []struct {
		name    string
		m       Machine
		wantErr string // substring; "" = valid
	}{
		{"zero machine", Machine{}, ""},
		{"base overrides", Machine{LatencyUS: 200, BandwidthMBs: 40}, ""},
		{"empty perturb block", Machine{Perturb: &sim.Perturb{}}, ""},
		{"full perturb", Machine{Perturb: &sim.Perturb{
			CPUFactor: []float64{1.3, 1, 0.9, 1},
			Links:     []sim.LinkPerturb{{From: 0, To: 1, LatencyUS: 170}, {From: 1, To: 0, BytesPerUS: 20}},
			JitterUS:  5, JitterSeed: 7}}, ""},
		{"negative latency", Machine{LatencyUS: -1},
			"machine: latency_us must be >= 0 (got -1)"},
		{"negative bandwidth", Machine{BandwidthMBs: -1},
			"machine: bandwidth_mbs must be >= 0 (got -1)"},
		{"too many cpu factors", Machine{Perturb: &sim.Perturb{CPUFactor: []float64{1, 1, 1, 1, 1}}},
			"machine: perturb.cpu lists 5 factors for 4 procs"},
		{"zero cpu factor", Machine{Perturb: &sim.Perturb{CPUFactor: []float64{1, 0}}},
			"machine: perturb.cpu[1] must be positive (got 0)"},
		{"negative jitter", Machine{Perturb: &sim.Perturb{JitterUS: -1}},
			"machine: perturb.jitter_us must be >= 0"},
		{"link out of range", Machine{Perturb: &sim.Perturb{Links: []sim.LinkPerturb{{From: 0, To: 4, LatencyUS: 5}}}},
			"machine: perturb link 0->4 out of range for 4 procs"},
		{"self link", Machine{Perturb: &sim.Perturb{Links: []sim.LinkPerturb{{From: 2, To: 2, LatencyUS: 5}}}},
			"machine: perturb link 2->2 is a self-link"},
		{"negative link override", Machine{Perturb: &sim.Perturb{Links: []sim.LinkPerturb{{From: 0, To: 1, LatencyUS: -5}}}},
			"machine: perturb link 0->1 has a negative override"},
		{"no-op link", Machine{Perturb: &sim.Perturb{Links: []sim.LinkPerturb{{From: 0, To: 1}}}},
			"machine: perturb link 0->1 overrides nothing (set latency_us or bandwidth_mbs)"},
		{"duplicate link", Machine{Perturb: &sim.Perturb{Links: []sim.LinkPerturb{
			{From: 0, To: 1, LatencyUS: 5}, {From: 0, To: 1, BytesPerUS: 20}}}},
			"machine: duplicate perturb link 0->1"},
	}
	for _, tc := range cases {
		err := tc.m.Validate(4)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate = %q, want substring %q", tc.name, err.Error(), tc.wantErr)
		}
	}
}

// TestMachinePerturbed pins the v1/v2 predicate: only a non-empty
// perturbation block counts, so an allocated-but-zero block cannot
// flip the canonical encoding version.
func TestMachinePerturbed(t *testing.T) {
	if (Machine{}).Perturbed() {
		t.Error("zero Machine reports Perturbed")
	}
	if (Machine{Perturb: &sim.Perturb{}}).Perturbed() {
		t.Error("all-zero perturb block reports Perturbed")
	}
	if !(Machine{Perturb: &sim.Perturb{JitterSeed: 1}}).Perturbed() {
		t.Error("seed-only perturb block does not report Perturbed")
	}
}

// TestMachineConfigPerturb checks Config hands the perturbation block
// to the simulator unchanged, and keeps an all-zero block off the
// uniform path.
func TestMachineConfigPerturb(t *testing.T) {
	p := &sim.Perturb{
		CPUFactor: []float64{1.3, 1},
		Links:     []sim.LinkPerturb{{From: 0, To: 1, LatencyUS: 170, BytesPerUS: 20}},
		JitterUS:  5, JitterSeed: 7,
	}
	cfg := Machine{LatencyUS: 200, Perturb: p}.Config(4)
	if cfg.LatencyUS != 200 {
		t.Errorf("LatencyUS = %v, want 200", cfg.LatencyUS)
	}
	if cfg.Perturb != p {
		t.Errorf("Config.Perturb = %+v, want the machine's block", cfg.Perturb)
	}
	if (Machine{Perturb: &sim.Perturb{}}).Config(4).Perturb != nil {
		t.Error("all-zero perturb block reached sim.Config")
	}
}
