package diff

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encodeReference is the original byte-at-a-time encoder, kept as the
// specification Encode is checked against: same run boundaries, same
// payload bytes, for every input and minGap. It returns the runs as a
// plain list, the representation Diff had before it became one buffer.
func encodeReference(twin, cur []byte, minGap int) []Run {
	if len(twin) != len(cur) {
		panic("diff: twin and page differ in length")
	}
	var runs []Run
	n := len(cur)
	i := 0
	for i < n {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start := i
		last := i // index of the last differing byte in this run
		j := i + 1
		for j < n {
			if twin[j] != cur[j] {
				last = j
				j++
				continue
			}
			// A stretch of identical bytes: if shorter than minGap (and
			// not at end of page), swallow it into the run.
			g := 0
			for j+g < n && twin[j+g] == cur[j+g] {
				g++
			}
			if g < minGap && j+g < n {
				j += g
				continue
			}
			break
		}
		data := make([]byte, last+1-start)
		copy(data, cur[start:last+1])
		runs = append(runs, Run{Off: start, Data: data})
		i = j
	}
	return runs
}

// referenceWireBytes prices runs as the wire does: WireHeaderB per run
// plus its bytes.
func referenceWireBytes(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += WireHeaderB + len(r.Data)
	}
	return n
}

// checkAgainstReference requires the runs decoded from Encode's buffer
// to agree with encodeReference on (twin, cur, minGap), its wire price
// to be the reference's, and the diff to reproduce cur from twin.
func checkAgainstReference(t *testing.T, twin, cur []byte, minGap int) {
	t.Helper()
	got, want := Encode(twin, cur, minGap), encodeReference(twin, cur, minGap)
	if !reflect.DeepEqual(got.runs(), want) {
		t.Fatalf("len %d minGap %d: runs differ\n got %s\nwant %s",
			len(cur), minGap, describe(got.runs()), describe(want))
	}
	if got.WireBytes() != referenceWireBytes(want) {
		t.Fatalf("WireBytes = %d, reference %d", got.WireBytes(), referenceWireBytes(want))
	}
	page := append([]byte(nil), twin...)
	got.Apply(page)
	if !bytes.Equal(page, cur) {
		t.Fatalf("len %d minGap %d: Apply(Encode(twin, cur)) onto twin != cur", len(cur), minGap)
	}
}

// describe prints run boundaries only; the payloads of a 4 KB page
// would drown the failure message.
func describe(runs []Run) string {
	if runs == nil {
		return "nil"
	}
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "[%d,%d)", r.Off, r.Off+len(r.Data))
	}
	return b.String()
}

func TestEncodeMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(300)
		if iter%10 == 0 {
			n = 4096
		}
		minGap := rng.Intn(13)
		twin := make([]byte, n)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for k := rng.Intn(13); k > 0; k-- {
			// A dirty stretch: mostly short, sometimes a long dense one,
			// with some bytes left equal inside it.
			start := rng.Intn(n)
			length := 1 + rng.Intn(24)
			if rng.Intn(8) == 0 {
				length = 1 + rng.Intn(n)
			}
			for i := start; i < n && i < start+length; i++ {
				if rng.Intn(6) != 0 {
					cur[i] ^= byte(1 + rng.Intn(255))
				}
			}
		}
		checkAgainstReference(t, twin, cur, minGap)
	}
}

// TestEncodeMatchesReferenceLargePage runs on a page above 64 KiB, with
// a run that starts past offset 65535 and one longer than 65535 bytes:
// a 16-bit header field would truncate both.
func TestEncodeMatchesReferenceLargePage(t *testing.T) {
	const n = 160 << 10
	rng := rand.New(rand.NewSource(7))
	twin := make([]byte, n)
	rng.Read(twin)
	cur := append([]byte(nil), twin...)
	flip := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cur[i] ^= 0xFF
		}
	}
	flip(100, 300)
	flip(1000, 1000+70000) // longer than 65535
	flip(90000, 90003)     // past offset 65535
	flip(n-5, n)
	for _, minGap := range []int{0, 8, 1 << 17} {
		checkAgainstReference(t, twin, cur, minGap)
	}
	if runs := Encode(twin, cur, 8).runs(); len(runs) != 4 || runs[1].Off != 1000 || len(runs[1].Data) != 70000 || runs[2].Off != 90000 {
		t.Fatalf("runs %s, want [100,300)[1000,71000)[90000,90003)[%d,%d)", describe(runs), n-5, n)
	}
}

// FuzzEncode checks Encode against the reference encoder on arbitrary
// pages. The two byte strings are cut to their common length; seeds are
// under testdata/fuzz/FuzzEncode.
func FuzzEncode(f *testing.F) {
	f.Add([]byte{}, []byte{}, 8)
	f.Add([]byte{0}, []byte{1}, 0)
	f.Fuzz(func(t *testing.T, twin, cur []byte, minGap int) {
		n := min(len(twin), len(cur))
		checkAgainstReference(t, twin[:n], cur[:n], minGap)
	})
}
