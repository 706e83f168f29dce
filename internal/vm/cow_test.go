package vm

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// cowModel is the copy-everything reference the copy-on-write Spaces are
// checked against: every (space, page) owns its bytes outright.
type cowModel struct {
	bytes [][][]byte // [space][page]
	prot  [][]Prot
}

// frozenBuf is a buffer Freeze returned, with the bytes it held then.
type frozenBuf struct {
	data []byte
	want []byte
	sum  uint32
}

// TestCopyOnWriteMatchesCopyingModel runs seeded random programs of
// Protect, typed writes, MutableData, SharePageFrom, Freeze and Alias
// over three Spaces of four pages and compares every page with a model
// that copies on every share. After each operation every page must read
// as the model says and no ReadWrite page may be shared; at the end
// every frozen buffer must still hold the bytes it was frozen with, and
// no free-list buffer may be in use by a page, a snapshot or another
// free list.
func TestCopyOnWriteMatchesCopyingModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runCOWProgram(t, seed, 400) })
	}
}

func runCOWProgram(t *testing.T, seed int64, steps int) {
	const nspaces, npages, ps = 3, 4, 64
	rng := rand.New(rand.NewSource(seed))
	a := NewArena(ps, npages*ps)
	base := a.Alloc(npages * ps)
	spaces := make([]*Space, nspaces)
	m := cowModel{bytes: make([][][]byte, nspaces), prot: make([][]Prot, nspaces)}
	for i := range spaces {
		prot := ReadOnly
		if i == 0 {
			prot = ReadWrite
		}
		spaces[i] = NewSpace(a, prot)
		m.bytes[i] = make([][]byte, npages)
		m.prot[i] = make([]Prot, npages)
		for p := range m.bytes[i] {
			m.bytes[i][p] = make([]byte, ps)
			m.prot[i][p] = prot
		}
	}
	var frozen []frozenBuf
	// readOnly drops page p of space s out of ReadWrite, the precondition
	// of sharing and aliasing.
	readOnly := func(s int, p PageID) {
		if m.prot[s][p] == ReadWrite {
			spaces[s].Protect(p, ReadOnly)
			m.prot[s][p] = ReadOnly
		}
	}
	for step := 0; step < steps; step++ {
		s, p := rng.Intn(nspaces), PageID(rng.Intn(npages))
		sp := spaces[s]
		var op string
		switch k := rng.Intn(7); k {
		case 0:
			prot := Prot(rng.Intn(3))
			op = fmt.Sprintf("Protect(s%d, p%d, %v)", s, p, prot)
			sp.Protect(p, prot)
			m.prot[s][p] = prot
		case 1, 2:
			if m.prot[s][p] != ReadWrite {
				sp.Protect(p, ReadWrite)
				m.prot[s][p] = ReadWrite
			}
			off, v := 8*rng.Intn(ps/8), rng.Int63()
			op = fmt.Sprintf("WriteI64(s%d, p%d+%d)", s, p, off)
			sp.WriteI64(base+Addr(int(p)*ps+off), v)
			for b := 0; b < 8; b++ {
				m.bytes[s][p][off+b] = byte(v >> (8 * b))
			}
		case 3:
			off, v := rng.Intn(ps), byte(rng.Intn(256))
			op = fmt.Sprintf("MutableData(s%d, p%d)[%d]", s, p, off)
			sp.MutableData(p)[off] = v
			m.bytes[s][p][off] = v
		case 4:
			o := rng.Intn(nspaces)
			op = fmt.Sprintf("SharePageFrom(s%d <- s%d, p%d)", s, o, p)
			readOnly(s, p)
			readOnly(o, p)
			sp.SharePageFrom(spaces[o], p)
			copy(m.bytes[s][p], m.bytes[o][p])
		case 5:
			op = fmt.Sprintf("Freeze(s%d, p%d)", s, p)
			data := sp.Freeze(p)
			if m.prot[s][p] == ReadWrite {
				m.prot[s][p] = ReadOnly
			}
			frozen = append(frozen, frozenBuf{data: data, want: bytes.Clone(m.bytes[s][p]), sum: crc32.ChecksumIEEE(data)})
		case 6:
			if len(frozen) == 0 {
				continue
			}
			f := frozen[rng.Intn(len(frozen))]
			op = fmt.Sprintf("Alias(s%d, p%d)", s, p)
			readOnly(s, p)
			sp.Alias(p, f.data)
			copy(m.bytes[s][p], f.want)
		}
		for i, x := range spaces {
			for q := PageID(0); q < npages; q++ {
				pg := x.Page(q)
				if !bytes.Equal(pg.Data(), m.bytes[i][q]) {
					t.Fatalf("step %d %s: space %d page %d bytes differ from the copying model", step, op, i, q)
				}
				if pg.Prot() != m.prot[i][q] {
					t.Fatalf("step %d %s: space %d page %d is %v, model %v", step, op, i, q, pg.Prot(), m.prot[i][q])
				}
				if pg.Prot() == ReadWrite && pg.Shared() {
					t.Fatalf("step %d %s: space %d page %d is writable and shared", step, op, i, q)
				}
			}
		}
	}
	for k, f := range frozen {
		if crc32.ChecksumIEEE(f.data) != f.sum || !bytes.Equal(f.data, f.want) {
			t.Fatalf("frozen buffer %d changed after it was frozen", k)
		}
	}
	// Every buffer has one role: a page's private bytes, a frozen (or
	// zero, shared) buffer, or a free-list entry — never two.
	users := map[*byte]string{&a.zero[0]: "the zero page"}
	for _, f := range frozen {
		users[&f.data[0]] = "a frozen buffer"
	}
	for i, x := range spaces {
		for q := PageID(0); q < npages; q++ {
			if pg := x.Page(q); !pg.Shared() {
				key := &pg.Data()[0]
				if u, taken := users[key]; taken {
					t.Fatalf("space %d page %d's private bytes are also %s", i, q, u)
				}
				users[key] = fmt.Sprintf("space %d page %d", i, q)
			}
		}
	}
	for i, x := range spaces {
		for _, buf := range x.free {
			key := &buf[0]
			if u, taken := users[key]; taken {
				t.Fatalf("space %d free list holds a buffer that is also %s", i, u)
			}
			users[key] = fmt.Sprintf("space %d's free list", i)
		}
	}
}

// TestAliasRecyclesPrivateBuffer pins the free list's round trip: a
// private page that aliases a snapshot gives up its buffer, and the next
// copy-on-write break in the same Space reuses it instead of allocating.
func TestAliasRecyclesPrivateBuffer(t *testing.T) {
	_, addr, img, peers := sealedImage(t, 1)
	s := peers[0]
	s.Protect(0, ReadWrite)
	s.WriteI64(addr, -1)
	private := &s.Page(0).Data()[0]
	s.Protect(0, ReadOnly)
	s.Alias(0, img.Page(1).Data())
	if got := s.ReadI64(addr); got != img.ReadI64(addr+Addr(img.Arena().PageSize())) {
		t.Fatalf("aliased page reads %d", got)
	}
	allocs := testing.AllocsPerRun(1, func() {
		s.Protect(0, ReadWrite)
		s.Protect(0, ReadOnly)
		s.Alias(0, img.Page(1).Data())
	})
	if allocs != 0 {
		t.Fatalf("copy-on-write break after an alias allocated %v times", allocs)
	}
	s.Protect(0, ReadWrite)
	if &s.Page(0).Data()[0] != private {
		t.Fatal("copy-on-write break did not reuse the buffer the alias freed")
	}
}

func TestAliasRejectsWritablePage(t *testing.T) {
	_, _, img, peers := sealedImage(t, 1)
	peers[0].Protect(0, ReadWrite)
	defer func() {
		if recover() == nil {
			t.Fatal("aliasing a writable page did not panic")
		}
	}()
	peers[0].Alias(0, img.Page(0).Data())
}
