package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// record builds a small two-episode trace exercising every event kind.
func record() *Trace {
	tr := NewTrace()
	tr.SetPhase("moldyn/every 20")
	ep := tr.Episode(2)
	ep.Send(0, 1, "chaos.gather", 10.5, 4096)
	ep.Deliver(1, 0, "chaos.gather", 113.4, 4096)
	ep.LockWait(1, 7, 50, 90)
	ep.LockHold(1, 7, 90, 120)
	ep.Barrier(0, 3, 130, 250)
	ep.MemCounter(0, "chaos.sched", 10.5, 2048)
	ep.Span(1, "chaos.inspect", 0, 45, 1024)
	ep.Mark(0, "tmk.notices", 60, 96)
	ep2 := tr.Episode(1)
	ep2.Send(0, 0, "self", 1, 8)
	return tr
}

// TestTraceJSONDeterministic: two identical recordings render identical
// bytes, and the bytes parse as the Chrome trace-event envelope.
func TestTraceJSONDeterministic(t *testing.T) {
	a, b := record().JSON(), record().JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("renders differ:\n%s\nvs\n%s", a, b)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, a)
	}
	// 9 events + metadata: 2 process names + 3 thread names.
	if len(parsed.TraceEvents) != 14 {
		t.Fatalf("got %d entries, want 14:\n%s", len(parsed.TraceEvents), a)
	}
}

// TestTraceMergeOrder: the render merges lanes by (ts, proc, lane
// sequence) — an event at an earlier simulated time renders first even
// when recorded later, and ties break by processor.
func TestTraceMergeOrder(t *testing.T) {
	tr := NewTrace()
	ep := tr.Episode(2)
	ep.Mark(1, "late", 100, 0)
	ep.Mark(1, "tie", 50, 0)
	ep.Mark(0, "tie", 50, 0) // same ts as proc 1's: proc 0 renders first
	ep.Mark(0, "early", 1, 0)
	out := string(tr.JSON())
	order := []string{`"early"`, `"tid":0,"ts":50`, `"tid":1,"ts":50`, `"late"`}
	last := -1
	for _, want := range order {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("missing %q:\n%s", want, out)
		}
		if i < last {
			t.Fatalf("%q out of order:\n%s", want, out)
		}
		last = i
	}
}

// TestTraceOutOfRangeProcDropped: emits for lanes that don't exist
// (e.g. the global mem shard's proc -1) are silently dropped.
func TestTraceOutOfRangeProcDropped(t *testing.T) {
	tr := NewTrace()
	ep := tr.Episode(2)
	ep.Mark(-1, "dropped", 1, 0)
	ep.Mark(2, "dropped", 1, 0)
	ep.Mark(0, "kept", 1, 0)
	out := string(tr.JSON())
	if strings.Contains(out, "dropped") {
		t.Fatalf("out-of-range event rendered:\n%s", out)
	}
	if !strings.Contains(out, "kept") {
		t.Fatalf("in-range event missing:\n%s", out)
	}
}

// TestTraceEscaping: names with quotes, backslashes, and control bytes
// render as valid JSON.
func TestTraceEscaping(t *testing.T) {
	tr := NewTrace()
	tr.SetPhase("a\"b\\c\nd")
	ep := tr.Episode(1)
	ep.Mark(0, "x\ty", 1, 0)
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	raw := tr.JSON()
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("escaped output is not valid JSON: %v\n%s", err, raw)
	}
	var label, mark bool
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "process_name" && ev.Args.Name == "a\"b\\c\nd #0" {
			label = true
		}
		if ev.Name == "x\ty" {
			mark = true
		}
	}
	if !label || !mark {
		t.Fatalf("escaped strings did not round-trip (label=%v mark=%v):\n%s", label, mark, raw)
	}
}

// TestTracePhaseOrdinals: the per-phase episode ordinal restarts on
// SetPhase, and an unlabeled trace falls back to "episode".
func TestTracePhaseOrdinals(t *testing.T) {
	tr := NewTrace()
	tr.Episode(1)
	tr.SetPhase("p1")
	tr.Episode(1)
	tr.Episode(1)
	tr.SetPhase("p2")
	tr.Episode(1)
	out := string(tr.JSON())
	for _, want := range []string{`"episode #0"`, `"p1 #0"`, `"p1 #1"`, `"p2 #0"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing episode label %s:\n%s", want, out)
		}
	}
}

// TestTraceNegativeDurationClamped: a dur that would be negative (e.g.
// a zero-wait grant with float noise) clamps to zero, keeping the
// trace loadable.
func TestTraceNegativeDurationClamped(t *testing.T) {
	tr := NewTrace()
	ep := tr.Episode(1)
	ep.LockWait(0, 1, 100, 90)
	if out := string(tr.JSON()); !strings.Contains(out, `"dur":0`) {
		t.Fatalf("negative duration not clamped:\n%s", out)
	}
}
