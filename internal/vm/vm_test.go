package vm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type recordingHandler struct {
	s      *Space
	faults []struct {
		page  PageID
		write bool
	}
	upgradeTo Prot
}

func (h *recordingHandler) HandleFault(page PageID, write bool) {
	h.faults = append(h.faults, struct {
		page  PageID
		write bool
	}{page, write})
	h.s.Protect(page, h.upgradeTo)
}

func TestArenaGeometry(t *testing.T) {
	a := NewArena(1024, 1<<20)
	if a.PageSize() != 1024 {
		t.Fatal("page size")
	}
	if a.PageOf(0) != 0 || a.PageOf(1023) != 0 || a.PageOf(1024) != 1 {
		t.Fatal("PageOf wrong")
	}
	f, l := a.PageRange(1000, 100)
	if f != 0 || l != 1 {
		t.Fatalf("PageRange = %d..%d", f, l)
	}
}

func TestArenaBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two page size")
		}
	}()
	NewArena(1000, 1<<20)
}

func TestAllocPageAligned(t *testing.T) {
	a := NewArena(4096, 1<<20)
	a1 := a.Alloc(100)
	a2 := a.Alloc(100)
	if a1%4096 != 0 || a2%4096 != 0 {
		t.Fatalf("allocations not page aligned: %d %d", a1, a2)
	}
	if a.PageOf(a1) == a.PageOf(a2) {
		t.Fatal("aligned allocations share a page")
	}
}

func TestAllocUnalignedPacks(t *testing.T) {
	a := NewArena(4096, 1<<20)
	a1 := a.AllocUnaligned(100)
	a2 := a.AllocUnaligned(100)
	if a2 != a1+100 {
		t.Fatalf("unaligned allocations not packed: %d then %d", a1, a2)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := NewArena(256, 512)
	a.Alloc(256)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on exhaustion")
		}
	}()
	a.Alloc(512)
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := NewArena(512, 1<<16)
	s := NewSpace(a, ReadWrite)
	addr := a.Alloc(64)
	s.WriteF64(addr, 3.14159)
	if got := s.ReadF64(addr); got != 3.14159 {
		t.Fatalf("f64 round trip: %v", got)
	}
	s.WriteI32(addr+8, -42)
	if got := s.ReadI32(addr + 8); got != -42 {
		t.Fatalf("i32 round trip: %v", got)
	}
	s.WriteI64(addr+16, 1<<40)
	if got := s.ReadI64(addr + 16); got != 1<<40 {
		t.Fatalf("i64 round trip: %v", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	a := NewArena(256, 1<<16)
	s := NewSpace(a, ReadWrite)
	base := a.Alloc(8 * 256)
	f := func(slot uint8, v float64) bool {
		addr := base + Addr(int(slot)*8)
		s.WriteF64(addr, v)
		return s.ReadF64(addr) == v || (v != v && s.ReadF64(addr) != s.ReadF64(addr)) // NaN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFaultDelivered(t *testing.T) {
	a := NewArena(512, 1<<16)
	s := NewSpace(a, NoAccess)
	h := &recordingHandler{s: s, upgradeTo: ReadOnly}
	s.SetHandler(h)
	addr := a.Alloc(8)
	_ = s.ReadF64(addr)
	if len(h.faults) != 1 || h.faults[0].write {
		t.Fatalf("faults = %+v", h.faults)
	}
	if s.ReadFaults != 1 {
		t.Fatalf("ReadFaults = %d", s.ReadFaults)
	}
	// Second read must not fault again.
	_ = s.ReadF64(addr)
	if len(h.faults) != 1 {
		t.Fatal("read faulted twice")
	}
}

func TestWriteFaultOnReadOnly(t *testing.T) {
	a := NewArena(512, 1<<16)
	s := NewSpace(a, ReadOnly)
	h := &recordingHandler{s: s, upgradeTo: ReadWrite}
	s.SetHandler(h)
	addr := a.Alloc(8)
	s.WriteF64(addr, 1)
	if len(h.faults) != 1 || !h.faults[0].write {
		t.Fatalf("faults = %+v", h.faults)
	}
	if s.WriteFaults != 1 {
		t.Fatalf("WriteFaults = %d", s.WriteFaults)
	}
	s.WriteF64(addr, 2)
	if len(h.faults) != 1 {
		t.Fatal("write faulted twice after upgrade")
	}
}

func TestCopyPageFrom(t *testing.T) {
	a := NewArena(512, 1<<16)
	s1 := NewSpace(a, ReadWrite)
	addr := a.Alloc(8)
	id := a.PageOf(addr)
	s1.WriteF64(addr, 7.5)
	// Into a private (ReadWrite) page and into a still-shared one: both
	// must end up with their own bytes, not an alias of the source's.
	for _, s2 := range []*Space{NewSpace(a, ReadWrite), NewSpace(a, ReadOnly)} {
		s2.CopyPageFrom(s1, id)
		if got := s2.ReadF64(addr); got != 7.5 {
			t.Fatalf("copied page read %v", got)
		}
		if s2.Page(id).Shared() {
			t.Fatal("page still shared after CopyPageFrom")
		}
		s1.WriteF64(addr, 8.5)
		if got := s2.ReadF64(addr); got != 7.5 {
			t.Fatalf("copy aliases its source: read %v after the source changed", got)
		}
		s1.WriteF64(addr, 7.5)
	}
}

func TestNeverWrittenPagesReadZero(t *testing.T) {
	a := NewArena(512, 1<<12)
	addr := a.Alloc(1 << 12)
	s1, s2 := NewSpace(a, ReadOnly), NewSpace(a, NoAccess)
	// Writing through one space must not leak into the zero page the
	// other still aliases.
	s1.Protect(a.PageOf(addr), ReadWrite)
	s1.WriteF64(addr, 1)
	for id := PageID(0); id < PageID(a.NumPages()); id++ {
		s2.Protect(id, ReadOnly)
	}
	for off := 0; off < 1<<12; off += 8 {
		if got := s2.ReadI64(addr + Addr(off)); got != 0 {
			t.Fatalf("never-written word at %d reads %d", off, got)
		}
		if got := s1.ReadI64(addr + Addr(off)); off > 0 && got != 0 {
			t.Fatalf("unwritten word at %d of a written space reads %d", off, got)
		}
	}
}

// sealedImage builds the SealInit shape: an image space that wrote
// word i of the arena as i+1 and was then sealed read-only, and peers
// sharing every page of it.
func sealedImage(t *testing.T, npeers int) (a *Arena, addr Addr, img *Space, peers []*Space) {
	t.Helper()
	a = NewArena(512, 1<<11)
	addr = a.Alloc(1 << 11)
	img = NewSpace(a, ReadWrite)
	for i := 0; i < 1<<8; i++ {
		img.WriteI64(addr+Addr(8*i), int64(i+1))
	}
	for p := 0; p < npeers; p++ {
		peers = append(peers, NewSpace(a, ReadOnly))
	}
	for id := PageID(0); id < PageID(a.NumPages()); id++ {
		img.Protect(id, ReadOnly)
		for _, s := range peers {
			s.SharePageFrom(img, id)
		}
	}
	return
}

func TestSharedPagesAreCopyOnWrite(t *testing.T) {
	a, addr, img, peers := sealedImage(t, 2)
	all := append([]*Space{img}, peers...)
	check := func(when string, s *Space, word int, want int64) {
		t.Helper()
		if got := s.ReadI64(addr + Addr(8*word)); got != want {
			t.Fatalf("%s: word %d reads %d, want %d", when, word, got, want)
		}
	}
	for _, s := range all {
		check("after sharing", s, 3, 4)
		if !s.Page(0).Shared() {
			t.Fatal("page 0 not shared after SharePageFrom")
		}
	}
	// A write through any one space — the image's owner included — is
	// invisible to every other.
	for k, s := range all {
		s.Protect(0, ReadWrite)
		s.WriteI64(addr+Addr(8*3), int64(-k-1))
		if s.Page(0).Shared() {
			t.Fatal("a writable page is still shared")
		}
		for j, o := range all {
			switch {
			case j < k:
				check("earlier writer", o, 3, int64(-j-1))
			case j == k:
				check("writer", o, 3, int64(-k-1))
				check("writer, rest of page", o, 4, 5)
			default:
				check("not yet written", o, 3, 4)
			}
		}
	}
	// Pages nobody wrote still share one copy.
	last := PageID(a.NumPages() - 1)
	for _, s := range peers {
		if &s.Page(last).Data()[0] != &img.Page(last).Data()[0] {
			t.Fatal("untouched page was copied")
		}
	}
}

func TestMutableDataPrivatizes(t *testing.T) {
	_, addr, img, peers := sealedImage(t, 2)
	data := peers[0].MutableData(1)
	if peers[0].Page(1).Shared() {
		t.Fatal("page still shared after MutableData")
	}
	if peers[0].Page(1).Prot() != ReadOnly {
		t.Fatal("MutableData changed the protection")
	}
	for i := range data {
		data[i] = 0xff
	}
	word := 512 / 8 // first word of page 1
	if got := peers[0].ReadI64(addr + Addr(8*word)); got != -1 {
		t.Fatalf("patched page reads %d", got)
	}
	for _, s := range []*Space{img, peers[1]} {
		if got := s.ReadI64(addr + Addr(8*word)); got != int64(word+1) {
			t.Fatalf("protocol write leaked into a peer: %d", got)
		}
	}
	// Once private, the accessor hands out the same bytes again.
	if &peers[0].MutableData(1)[0] != &data[0] {
		t.Fatal("MutableData copied an already-private page")
	}
}

func TestSharePageFromRejectsWritablePages(t *testing.T) {
	a := NewArena(512, 1<<12)
	for _, c := range []struct{ src, dst Prot }{{ReadWrite, ReadOnly}, {ReadOnly, ReadWrite}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sharing %v into %v did not panic", c.src, c.dst)
				}
			}()
			NewSpace(a, c.dst).SharePageFrom(NewSpace(a, c.src), 0)
		}()
	}
}

func TestFaultWithoutHandlerPanics(t *testing.T) {
	a := NewArena(512, 1<<16)
	s := NewSpace(a, NoAccess)
	addr := a.Alloc(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without handler")
		}
	}()
	_ = s.ReadF64(addr)
}

type badHandler struct{}

func (badHandler) HandleFault(PageID, bool) {} // never upgrades

func TestHandlerMustResolveFault(t *testing.T) {
	a := NewArena(512, 1<<16)
	s := NewSpace(a, NoAccess)
	s.SetHandler(badHandler{})
	addr := a.Alloc(8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when handler fails to resolve")
		}
	}()
	_ = s.ReadF64(addr)
}

func TestManyRandomAccessesAcrossPages(t *testing.T) {
	a := NewArena(1024, 1<<20)
	s := NewSpace(a, ReadWrite)
	base := a.Alloc(8 * 10000)
	rng := rand.New(rand.NewSource(1))
	ref := make(map[int]float64)
	for i := 0; i < 5000; i++ {
		slot := rng.Intn(10000)
		v := rng.Float64()
		s.WriteF64(base+Addr(slot*8), v)
		ref[slot] = v
	}
	for slot, v := range ref {
		if got := s.ReadF64(base + Addr(slot*8)); got != v {
			t.Fatalf("slot %d: %v != %v", slot, got, v)
		}
	}
}

func BenchmarkReadF64(b *testing.B) {
	a := NewArena(4096, 1<<20)
	s := NewSpace(a, ReadWrite)
	addr := a.Alloc(8 * 1024)
	var sum float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum += s.ReadF64(addr + Addr((i%1024)*8))
	}
	_ = sum
}

func BenchmarkWriteF64(b *testing.B) {
	a := NewArena(4096, 1<<20)
	s := NewSpace(a, ReadWrite)
	addr := a.Alloc(8 * 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.WriteF64(addr+Addr((i%1024)*8), 1.0)
	}
}
