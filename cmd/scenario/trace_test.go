// Trace-path tests: the committed trace golden the CI determinism leg
// diffs, the byte-identity check across -j values, and a trace-summary
// render smoke test over the golden.
package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/raceflag"
)

// traceRun executes the specs with tracing into a temp dir and returns
// the recorded trace file bytes, one per spec, in input order.
func traceRun(t *testing.T, jobs int, specs ...string) [][]byte {
	t.Helper()
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, specs, runOpts{jobs: jobs, traceDir: dir}); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 0, len(specs))
	for _, spec := range specs {
		name := strings.TrimSuffix(filepath.Base(spec), filepath.Ext(spec))
		raw, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// TestTraceGolden pins the recorded trace of the shipped trace fixture
// byte-for-byte — the determinism contract of DESIGN.md §13 as a
// committed artifact, diffed again by the CI determinism leg.
func TestTraceGolden(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("golden render skipped under -race (see internal/raceflag)")
	}
	raw := traceRun(t, 1, "../../scenarios/trace.yaml")[0]
	golden.Check(t, raw, "testdata/trace.trace.json", *update)
}

// TestTraceByteIdentity checks that -j does not reach the traces: one
// -j 1 and one -j 4 invocation over two traced specs (table1 and
// trace) record byte-identical trace files. Two specs make the -j 4
// pool actually run them concurrently. Each traced request bypasses
// the result cache, so the two invocations are independent
// simulations and a run-to-run difference fails here too; trace.yaml's
// own repro check compares three traced runs byte for byte.
func TestTraceByteIdentity(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("traced table1 runs skipped under -race (see internal/raceflag)")
	}
	if testing.Short() {
		t.Skip("re-simulates table1 and trace twice")
	}
	specs := []string{"../../scenarios/table1.yaml", "../../scenarios/trace.yaml"}
	serial, wide := traceRun(t, 1, specs...), traceRun(t, 4, specs...)
	for i, spec := range specs {
		if len(serial[i]) == 0 {
			t.Fatalf("%s: empty trace recorded", spec)
		}
		if !bytes.Equal(serial[i], wide[i]) {
			t.Errorf("%s: -j 4 trace differs from -j 1 (%d vs %d bytes)", spec, len(wide[i]), len(serial[i]))
		}
	}
}

// TestBytesEventCount pins the event count `scenario run -trace` prints
// for the committed trace golden: its 996 events, without the 15
// metadata objects naming episodes and lanes.
func TestBytesEventCount(t *testing.T) {
	raw, err := os.ReadFile("testdata/trace.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := bytesEventCount(raw); got != 996 {
		t.Errorf("bytesEventCount = %d, want 996", got)
	}
}

// TestTraceSummary smoke-tests the trace-summary subcommand on the
// committed golden: the three tables render, the taskq queue lock is
// the hottest, and the output is deterministic (run twice).
func TestTraceSummary(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		if err := traceSummaryCmd(w, []string{"-top", "3", "testdata/trace.trace.json"}); err != nil {
			t.Fatal(err)
		}
	}
	out := a.String()
	for _, want := range []string{"Hottest locks", "Longest barrier stalls", "Busiest links", "lock 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if out != b.String() {
		t.Error("trace-summary output is not deterministic")
	}
}

// TestTraceSummaryErrors covers the operand-validation paths.
func TestTraceSummaryErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := traceSummaryCmd(&buf, nil); err == nil {
		t.Error("no operands: want error")
	}
	if err := traceSummaryCmd(&buf, []string{"testdata/no-such-file.json"}); err == nil {
		t.Error("missing file: want error")
	}
}
