package diff

import (
	"bytes"
	"testing"
)

// TestEncodeEdgeCases is the table-driven round-trip suite for the
// encoder's boundary behaviour: empty pages, whole-page changes, and
// modification gaps that land exactly on either side of the minGap
// merge threshold.
func TestEncodeEdgeCases(t *testing.T) {
	const minGap = 8
	mut := func(size int, idxs ...int) (twin, cur []byte) {
		twin = make([]byte, size)
		cur = make([]byte, size)
		for _, i := range idxs {
			cur[i] = 0xFF
		}
		return
	}

	cases := []struct {
		name     string
		twin     func() ([]byte, []byte)
		wantRuns int
	}{
		{
			name:     "zero-length page",
			twin:     func() ([]byte, []byte) { return mut(0) },
			wantRuns: 0,
		},
		{
			name:     "unchanged page",
			twin:     func() ([]byte, []byte) { return mut(64) },
			wantRuns: 0,
		},
		{
			name: "full-page change",
			twin: func() ([]byte, []byte) {
				twin, cur := mut(64)
				for i := range cur {
					cur[i] = byte(i + 1) // +1 so byte 0 differs too
				}
				return twin, cur
			},
			wantRuns: 1,
		},
		{
			name:     "single byte at start",
			twin:     func() ([]byte, []byte) { return mut(64, 0) },
			wantRuns: 1,
		},
		{
			name:     "single byte at end",
			twin:     func() ([]byte, []byte) { return mut(64, 63) },
			wantRuns: 1,
		},
		{
			name: "gap of minGap-1 merges",
			// Changed bytes at 10 and 10+minGap: identical stretch of
			// minGap-1 bytes between them is swallowed into one run.
			twin:     func() ([]byte, []byte) { return mut(64, 10, 10+minGap) },
			wantRuns: 1,
		},
		{
			name: "gap of exactly minGap splits",
			// Identical stretch of exactly minGap bytes: two runs.
			twin:     func() ([]byte, []byte) { return mut(64, 10, 10+minGap+1) },
			wantRuns: 2,
		},
		{
			name: "interior gap shorter than minGap merges near page end",
			// Bytes 61-62 are a 2-byte interior gap: merged.
			twin:     func() ([]byte, []byte) { return mut(64, 60, 63) },
			wantRuns: 1,
		},
		{
			name: "alternating bytes within minGap collapse to one run",
			twin: func() ([]byte, []byte) {
				return mut(64, 8, 10, 12, 14, 16)
			},
			wantRuns: 1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin, cur := tc.twin()
			d := Encode(twin, cur, minGap)
			runs := d.runs()
			if len(runs) != tc.wantRuns {
				t.Fatalf("runs = %d, want %d (%+v)", len(runs), tc.wantRuns, runs)
			}
			// Round trip: applying the diff to the twin must yield cur.
			got := append([]byte(nil), twin...)
			d.Apply(got)
			if !bytes.Equal(got, cur) {
				t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, cur)
			}
			// The wire never carries more than headers + the whole page.
			if max := len(runs)*WireHeaderB + len(cur); d.WireBytes() > max {
				t.Fatalf("WireBytes = %d exceeds %d", d.WireBytes(), max)
			}
			if (len(d) == 0) != (tc.wantRuns == 0) {
				t.Fatalf("%d bytes with %d runs", len(d), len(runs))
			}
		})
	}
}

// TestEncodeTrailingGapNotSwallowed pins down the end-of-page rule: an
// identical stretch that reaches the end of the page terminates the run
// (however short), so the run stops at the last differing byte instead
// of shipping the trailing unchanged bytes.
func TestEncodeTrailingGapNotSwallowed(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[58] = 0xFF // bytes 59..63 identical: 5 < minGap but at page end
	runs := Encode(twin, cur, 8).runs()
	if len(runs) != 1 {
		t.Fatalf("want 1 run, got %+v", runs)
	}
	if r := runs[0]; r.Off != 58 || len(r.Data) != 1 {
		t.Fatalf("run spans [%d,%d), want exactly [58,59)", r.Off, r.Off+len(r.Data))
	}
}

// TestEncodeMergedGapCarriesCurrentBytes pins down the merge semantics:
// a swallowed gap ships the (identical) current bytes, so Apply remains
// correct even though the run spans unchanged bytes.
func TestEncodeMergedGapCarriesCurrentBytes(t *testing.T) {
	twin := make([]byte, 32)
	for i := range twin {
		twin[i] = byte(i)
	}
	cur := append([]byte(nil), twin...)
	cur[4] = 0xAA
	cur[9] = 0xBB // gap of 4 < minGap 8: merged
	runs := Encode(twin, cur, 8).runs()
	if len(runs) != 1 {
		t.Fatalf("want merged run, got %+v", runs)
	}
	r := runs[0]
	if r.Off != 4 || len(r.Data) != 6 {
		t.Fatalf("merged run spans [%d,%d), want [4,10)", r.Off, r.Off+len(r.Data))
	}
	if !bytes.Equal(r.Data, cur[4:10]) {
		t.Fatalf("merged run data %v != cur[4:10] %v", r.Data, cur[4:10])
	}
}
