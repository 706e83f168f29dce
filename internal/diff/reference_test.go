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
// payload bytes, for every input and minGap.
func encodeReference(twin, cur []byte, minGap int) Diff {
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
	return Diff{Runs: runs}
}

// checkAgainstReference requires Encode to agree with encodeReference
// on (twin, cur, minGap) and the result to reproduce cur from twin.
func checkAgainstReference(t *testing.T, twin, cur []byte, minGap int) {
	t.Helper()
	got, want := Encode(twin, cur, minGap), encodeReference(twin, cur, minGap)
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatalf("len %d minGap %d: runs differ\n got %s\nwant %s",
			len(cur), minGap, describe(got), describe(want))
	}
	if got.WireBytes() != want.WireBytes() {
		t.Fatalf("WireBytes = %d, reference %d", got.WireBytes(), want.WireBytes())
	}
	page := append([]byte(nil), twin...)
	got.Apply(page)
	if !bytes.Equal(page, cur) {
		t.Fatalf("len %d minGap %d: Apply(Encode(twin, cur)) onto twin != cur", len(cur), minGap)
	}
}

// describe prints run boundaries only; the payloads of a 4 KB page
// would drown the failure message.
func describe(d Diff) string {
	if d.Runs == nil {
		return "nil"
	}
	var b strings.Builder
	for _, r := range d.Runs {
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
