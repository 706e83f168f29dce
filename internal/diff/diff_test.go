package diff

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// runs decodes the diff's runs, in ascending offset order. Each run's
// Data aliases the diff's buffer.
func (d Diff) runs() []Run {
	var runs []Run
	for i := 0; i < len(d); {
		var r Run
		r, i = d.next(i)
		runs = append(runs, r)
	}
	return runs
}

func TestEncodeEmpty(t *testing.T) {
	page := make([]byte, 256)
	twin := make([]byte, 256)
	d := Encode(twin, page, 8)
	if len(d) != 0 {
		t.Fatalf("identical pages produced %d runs", len(d.runs()))
	}
	if d.WireBytes() != 0 {
		t.Fatalf("empty diff has %d wire bytes", d.WireBytes())
	}
}

func TestEncodeSingleByte(t *testing.T) {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	cur[57] = 0xAB
	runs := Encode(twin, cur, 8).runs()
	if len(runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(runs))
	}
	r := runs[0]
	if r.Off != 57 || len(r.Data) != 1 || r.Data[0] != 0xAB {
		t.Fatalf("bad run %+v", r)
	}
}

func TestEncodeMergesShortGaps(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[10] = 1
	cur[14] = 1 // gap of 3 < minGap 8: should merge
	runs := Encode(twin, cur, 8).runs()
	if len(runs) != 1 {
		t.Fatalf("want merged single run, got %d runs: %+v", len(runs), runs)
	}
	if runs[0].Off != 10 || len(runs[0].Data) != 5 {
		t.Fatalf("bad merged run %+v", runs[0])
	}
}

func TestEncodeSplitsLongGaps(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[5] = 1
	cur[40] = 1 // gap of 34 >= minGap: two runs
	if runs := Encode(twin, cur, 8).runs(); len(runs) != 2 {
		t.Fatalf("want 2 runs, got %d: %+v", len(runs), runs)
	}
}

func TestEncodeModificationAtPageEdges(t *testing.T) {
	twin := make([]byte, 32)
	cur := make([]byte, 32)
	cur[0] = 9
	cur[31] = 9
	d := Encode(twin, cur, 4)
	got := make([]byte, 32)
	d.Apply(got)
	if !bytes.Equal(got, cur) {
		t.Fatalf("apply mismatch at edges")
	}
}

func TestApplyRoundTripProperty(t *testing.T) {
	// Property: for any twin and any set of modifications,
	// apply(twin, encode(twin, cur)) == cur.
	f := func(seed int64, size uint8, gap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%512 + 1
		minGap := int(gap)%16 + 1
		twin := make([]byte, n)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		// Random sparse modifications.
		for k := 0; k < rng.Intn(20); k++ {
			cur[rng.Intn(n)] = byte(rng.Int())
		}
		d := Encode(twin, cur, minGap)
		got := append([]byte(nil), twin...)
		d.Apply(got)
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestRunsNeverOverlapAndAreSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 256
		twin := make([]byte, n)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for k := 0; k < rng.Intn(40); k++ {
			cur[rng.Intn(n)] ^= byte(1 + rng.Intn(255))
		}
		d := Encode(twin, cur, 8)
		prevEnd := -1
		for _, r := range d.runs() {
			if r.Off <= prevEnd {
				return false
			}
			if len(r.Data) == 0 {
				return false
			}
			prevEnd = r.Off + len(r.Data) - 1
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWireBytes(t *testing.T) {
	// Two runs, [0,10) and [20,25): the wire carries their bytes and a
	// WireHeaderB header each, whatever the host's header width.
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	for i := 0; i < 10; i++ {
		cur[i] = 1
	}
	for i := 20; i < 25; i++ {
		cur[i] = 1
	}
	d := Encode(twin, cur, 8)
	want := 2*WireHeaderB + 15
	if d.WireBytes() != want {
		t.Fatalf("WireBytes = %d, want %d", d.WireBytes(), want)
	}
}

func TestTwinIsACopy(t *testing.T) {
	page := []byte{1, 2, 3}
	tw := Twin(page)
	page[0] = 9
	if tw[0] != 1 {
		t.Fatal("Twin aliases the page")
	}
}

func TestEncodeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Encode(make([]byte, 3), make([]byte, 4), 8)
}

// sparsePage is the perf probe's sparse input (diff.encode_sparse_ns,
// diff.allocs_per_encode): one modified byte every 128, 32 runs.
func sparsePage() (twin, cur []byte) {
	twin = make([]byte, 4096)
	cur = make([]byte, 4096)
	for i := 0; i < 4096; i += 128 {
		cur[i] = 1
	}
	return twin, cur
}

// TestEncodeAllocs pins the encoder's allocation count: the one buffer
// holding every run's header and bytes, however many runs the page has.
func TestEncodeAllocs(t *testing.T) {
	twin, cur := sparsePage()
	if got := testing.AllocsPerRun(100, func() { Encode(twin, cur, 8) }); got > 1 {
		t.Fatalf("Encode allocates %v times per sparse page, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { Encode(twin, twin, 8) }); got != 0 {
		t.Fatalf("Encode allocates %v times on an unchanged page, want 0", got)
	}
}

func BenchmarkEncodeSparse(b *testing.B) {
	twin, cur := sparsePage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(twin, cur, 8)
	}
}

func BenchmarkEncodeDense(b *testing.B) {
	twin := make([]byte, 4096)
	cur := make([]byte, 4096)
	for i := range cur {
		cur[i] = byte(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(twin, cur, 8)
	}
}
