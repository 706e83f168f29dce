package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/golden"
	"repro/internal/raceflag"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// TestGoldenScenarios runs every shipped CI-size scenario and diffs
// the output against its golden fixture. The shipped specs carry
// repro: true, so each rendering here also run-twice byte-diffs itself;
// this is the only tier-1 repro check of the golden specs, so a spec
// that drops the key fails here.
func TestGoldenScenarios(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	cases := []struct{ spec, fixture string }{
		{"../../scenarios/table1.yaml", "testdata/table1.golden"},
		{"../../scenarios/table2.yaml", "testdata/table2.golden"},
		{"../../scenarios/table3.yaml", "testdata/table3.golden"},
		{"../../scenarios/table4.yaml", "testdata/table4.golden"},
		{"../../scenarios/table5.yaml", "testdata/table5.golden"},
		{"../../scenarios/memory.yaml", "testdata/memory.golden"},
		{"../../scenarios/latency.yaml", "testdata/latency.golden"},
		{"../../scenarios/trace.yaml", "testdata/trace.golden"},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.spec), func(t *testing.T) {
			if spec, err := scenario.Load(tc.spec); err != nil || !spec.Repro {
				t.Fatalf("%s: want a valid spec with repro: true (err %v)", tc.spec, err)
			}
			var buf bytes.Buffer
			// A single operand prints the rendering alone — stdout is the
			// golden bytes, no header.
			if err := run(context.Background(), &buf, []string{tc.spec}, runOpts{}); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, buf.Bytes(), tc.fixture, *update)
		})
	}
}

// TestParallelMatchesSerial runs a few shipped scenarios serially
// (-j 1) and on a wide pool (-j 4) and requires byte-identical stdout
// and byte-identical metrics. In-order reassembly is a property of
// runner.Map, not of how many scenarios it reassembles, so three specs
// of different experiment kinds prove it: a canned table, a swept app
// grid and a traced app run. CI's determinism leg diffs every shipped
// golden at -j 4.
func TestParallelMatchesSerial(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("scenario render skipped under -race (see internal/raceflag)")
	}
	if testing.Short() {
		t.Skip("runs three shipped scenarios twice")
	}
	files := []string{"../../scenarios/table4.yaml", "../../scenarios/latency.yaml", "../../scenarios/trace.yaml"}
	var serial, parallel bytes.Buffer
	if err := run(context.Background(), &serial, files, runOpts{jobs: 1, metrics: true}); err != nil {
		t.Fatalf("-j 1: %v", err)
	}
	if err := run(context.Background(), &parallel, files, runOpts{jobs: 4, metrics: true}); err != nil {
		t.Fatalf("-j 4: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("-j 4 output differs from -j 1:\n--- j1 ---\n%s\n--- j4 ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestRunFailsOnViolation drives the deliberately-failing fixture
// through the run subcommand: the violation must be printed with the
// offending metric, band, and observed value, and the invocation must
// return an error (main exits non-zero on it).
func TestRunFailsOnViolation(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), &buf, []string{"../../internal/scenario/testdata/failing.yaml"}, runOpts{})
	if err == nil {
		t.Fatal("run succeeded on the failing fixture")
	}
	want := "metric moldyn/2 procs/seq/speedup = 1 outside band [10, 100]"
	if !strings.Contains(err.Error(), "1 assertion violation(s)") || !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want the violation detail %q", err, want)
	}
	if !strings.Contains(buf.String(), "VIOLATION failing-band: "+want) {
		t.Errorf("output missing the violation line:\n%s", buf.String())
	}
}

// TestValidateTree lints the whole scenarios tree the way the CI leg
// does, nightly and claims specs included.
func TestValidateTree(t *testing.T) {
	var buf bytes.Buffer
	if err := validateCmd(&buf, []string{"../../scenarios/..."}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "28 scenario(s) valid") {
		t.Errorf("validate output:\n%s", out)
	}
	for _, f := range []string{"table1.yaml", "nightly/memory.yaml", "claims/c3-nbf-baseline.yaml"} {
		if !strings.Contains(out, f) {
			t.Errorf("validate output missing %s:\n%s", f, out)
		}
	}
}

// TestValidateReportsOnce: an invalid spec is reported with one
// "scenario:" prefix, then its path, then what is wrong.
func TestValidateReportsOnce(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: x\nexperiment: table1\nprocz: 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"validate", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("validate exited %d, want 1", code)
	}
	want := "scenario: " + bad + ": unknown key \"procz\"\n"
	if stderr.String() != want {
		t.Errorf("validate printed %q, want %q", stderr.String(), want)
	}
}

// TestListScenarios smoke-tests the list subcommand on the CI set.
func TestListScenarios(t *testing.T) {
	var buf bytes.Buffer
	if err := listCmd(&buf, []string{"../../scenarios"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "memory", "latency", "app"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMetricsAddrServes checks the -metrics=ADDR endpoint: the served
// page is the process registry in Prometheus text format, including
// the cache-tier gauge family the service job scrapes.
func TestMetricsAddrServes(t *testing.T) {
	url, stop, err := serveMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Touch the cache so its series exist before the scrape.
	cache.New(2).PutSized(cache.KeyOf([]byte("metrics-addr-test")), 1, 3)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `repro_cache_bytes{tier="memory"} `) {
		t.Errorf("scrape missing the cache bytes gauge:\n%s", body)
	}
}

// TestRunPrintsMetricsURL checks the run command announces where the
// registry is being served when -metrics=ADDR is set.
func TestRunPrintsMetricsURL(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), &buf,
		[]string{"../../scenarios/service/taskq.yaml"},
		runOpts{metricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "metrics: http://") {
		t.Errorf("run output does not announce the metrics URL:\n%s", buf.String())
	}
}

// TestMetricsFlagForms pins the -metrics flag's three forms and their
// mapping onto the run options, plus the repeatable combination.
func TestMetricsFlagForms(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want runOpts
	}{
		{"bare", []string{"-metrics"}, runOpts{metrics: true}},
		{"registry dump", []string{"-metrics=-"}, runOpts{obs: true}},
		{"serve", []string{"-metrics=127.0.0.1:0"}, runOpts{metricsAddr: "127.0.0.1:0"}},
		{"combined", []string{"-metrics", "-metrics=-"}, runOpts{metrics: true, obs: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			opts := runOpts{}
			fs.Var(&metricsFlag{&opts}, "metrics", "")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("Parse(%v): %v", tc.args, err)
			}
			if opts != tc.want {
				t.Errorf("Parse(%v) = %+v, want %+v", tc.args, opts, tc.want)
			}
		})
	}
}

// TestLockColumnsNonZero asserts Table 4's acceptance criterion on its
// golden rendering (TestGoldenScenarios pins the rendering to it):
// every TMK row of every configuration reports nonzero lock
// statistics, and the sequential/PVM rows report zeros.
func TestLockColumnsNonZero(t *testing.T) {
	tmkRows := 0
	for _, line := range strings.Split(readGolden(t, "table4"), "\n") {
		fs := strings.Fields(line)
		switch {
		case strings.Contains(line, "Tmk base") || strings.Contains(line, "Tmk batched"):
			tmkRows++
			// ... Lock acq, Wait, Hold, Grant are the last four fields.
			if len(fs) < 4 || fs[len(fs)-4] == "0" {
				t.Errorf("TMK row has zero lock acquires: %q", line)
			}
		case strings.Contains(line, "Sequential") || strings.Contains(line, "PVM m/w"):
			if len(fs) >= 4 && fs[len(fs)-4] != "0" {
				t.Errorf("lock-free row has lock acquires: %q", line)
			}
		}
	}
	if tmkRows != 4 {
		t.Errorf("expected 4 TMK rows (2 configs x 2 variants), saw %d", tmkRows)
	}
}

// TestPolicySelectsAllThreeOrganizations asserts Table 5's point on its
// golden rendering: under the default budget the capacity policy lands
// each app on a different organization — moldyn's table still
// replicates, nbf's is forced to the distributed segment, spmv's banded
// working set earns the bounded paged cache.
func TestPolicySelectsAllThreeOrganizations(t *testing.T) {
	out := readGolden(t, "table5")
	for app, org := range map[string]string{
		"moldyn": "replicated", "nbf": "distributed", "spmv": "paged",
	} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "CHAOS table:") && strings.Contains(line, app) &&
				strings.Contains(line, org) {
				found = true
			}
		}
		if !found {
			t.Errorf("expected %s to run the %s table under the default budget", app, org)
		}
	}
	// TMK rows must report page-copy footprints; CHAOS rows table storage.
	if !strings.Contains(out, "Tmk base") {
		t.Fatal("missing TMK rows")
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
