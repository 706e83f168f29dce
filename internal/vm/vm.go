// Package vm implements a software MMU: a paged shared address space in
// which every access to shared data goes through typed accessors that
// check per-page protection bits and deliver faults to a registered
// handler.
//
// The paper relies on the hardware MMU — TreadMarks mprotect()s pages
// and catches SIGSEGV to detect accesses, and write-protects the pages
// holding the indirection array to detect changes to it. Go's runtime
// and garbage collector make SIGSEGV-based user-level page protection
// impractical (see DESIGN.md §2), so this package reproduces the same
// mechanism in software: the protection transitions, fault upcalls, and
// page-granularity behaviour are identical; only the detection mechanism
// (an explicit check in the accessor instead of a hardware trap) differs.
package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Prot is a page protection level, mirroring mprotect's PROT_* modes.
type Prot uint8

const (
	// NoAccess: any access faults (the page is invalid).
	NoAccess Prot = iota
	// ReadOnly: reads succeed, writes fault (used both for clean pages
	// under the multiple-writer protocol and for write-protected
	// indirection-array pages).
	ReadOnly
	// ReadWrite: all accesses succeed.
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case NoAccess:
		return "none"
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// Addr is a byte offset into the shared arena. The arena is a single
// global address space identical on every processor, like the shared
// heap TreadMarks lays out at the same virtual address on every node.
type Addr int

// PageID identifies one page of the arena.
type PageID int

// FaultHandler receives protection-violation upcalls. It must resolve
// the fault (upgrade the page's protection) before returning; the
// faulting access then retries. write reports whether the faulting
// access was a store.
type FaultHandler interface {
	HandleFault(page PageID, write bool)
}

// Arena describes the shared address space: its page geometry and the
// allocation cursor. One Arena is shared by all processors' Spaces.
type Arena struct {
	pageSize int
	shift    uint
	mask     int
	next     Addr
	limit    Addr
	// zero is the one all-zero page every never-written page of every
	// Space aliases copy-on-write (DESIGN.md §9, "Host memory").
	zero []byte
}

// NewArena creates an address space of totalBytes capacity with the
// given page size (which must be a power of two).
func NewArena(pageSize int, totalBytes int) *Arena {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic("vm: page size must be a power of two")
	}
	shift := uint(0)
	for 1<<shift != pageSize {
		shift++
	}
	return &Arena{
		pageSize: pageSize,
		shift:    shift,
		mask:     pageSize - 1,
		limit:    Addr(totalBytes),
		zero:     make([]byte, pageSize),
	}
}

// PageSize returns the page size in bytes.
func (a *Arena) PageSize() int { return a.pageSize }

// NumPages returns the number of pages spanned by the allocations so far.
func (a *Arena) NumPages() int {
	return int((a.next + Addr(a.pageSize) - 1) >> a.shift)
}

// Capacity returns the arena's total capacity in pages.
func (a *Arena) Capacity() int { return int(a.limit >> a.shift) }

// PageOf returns the page containing addr.
func (a *Arena) PageOf(addr Addr) PageID { return PageID(addr >> a.shift) }

// PageRange returns the inclusive page range covering [addr, addr+size).
func (a *Arena) PageRange(addr Addr, size int) (first, last PageID) {
	if size <= 0 {
		panic("vm: PageRange with non-positive size")
	}
	return a.PageOf(addr), a.PageOf(addr + Addr(size) - 1)
}

// Alloc reserves size bytes aligned to the page boundary, the way
// TreadMarks' shared malloc places distinct arrays on distinct pages.
func (a *Arena) Alloc(size int) Addr {
	// Round the cursor up to a page boundary.
	a.next = Addr((int(a.next) + a.mask) &^ a.mask)
	return a.allocAt(size)
}

// AllocUnaligned reserves size bytes at the current cursor with no
// alignment, packing arrays together so that page boundaries fall inside
// arrays — the false-sharing-prone layout the paper's 64x1000 nbf
// configuration exercises.
func (a *Arena) AllocUnaligned(size int) Addr {
	return a.allocAt(size)
}

func (a *Arena) allocAt(size int) Addr {
	if size <= 0 {
		panic("vm: allocation of non-positive size")
	}
	addr := a.next
	a.next += Addr(size)
	if a.next > a.limit {
		panic(fmt.Sprintf("vm: arena exhausted: want %d bytes at %d, limit %d", size, addr, a.limit))
	}
	return addr
}

// Page is one processor's view of a page: its protection and its bytes.
// The bytes are copy-on-write: while shared is set they alias immutable
// storage other Spaces or stored snapshots also read (the arena's zero
// page, a sealed image, a frozen whole-page snapshot) and must not be
// written. A ReadWrite page is never shared; Space.Protect is the one
// place that guarantees it.
type Page struct {
	data   []byte
	prot   Prot
	shared bool
}

// Prot returns the current protection.
func (pg *Page) Prot() Prot { return pg.prot }

// Shared reports whether the page still aliases copy-on-write storage,
// i.e. this Space has neither written it nor applied a diff to it.
func (pg *Page) Shared() bool { return pg.shared }

// Data exposes the raw page bytes for protocol reads (twinning, diffing,
// full-page transfer). Protocol code bypasses protection, exactly as the
// DSM library does via its own mappings in TreadMarks. The bytes may be
// shared: writes go through Space.MutableData.
func (pg *Page) Data() []byte { return pg.data }

// Space is one processor's view of the arena: its page table. Accesses
// through a Space check protection and deliver faults to the handler.
type Space struct {
	arena   *Arena
	pages   []Page
	handler FaultHandler
	// free holds the private buffers of pages that Alias pointed
	// elsewhere, for the next copy-on-write break to reuse. No page
	// refers to them.
	free [][]byte

	// Counters for the fault-driven behaviour under test.
	ReadFaults  int64
	WriteFaults int64
}

// NewSpace creates a processor-local view with all pages present, zero,
// and at protection prot. A ReadWrite space owns one private slab (it is
// an initial image under construction); any other space costs a page
// table only, every page aliasing the arena's zero page until it is
// written. (Initialization is untimed and replicated; see DESIGN.md §9,
// "Host memory".)
func NewSpace(a *Arena, prot Prot) *Space {
	s := &Space{arena: a, pages: make([]Page, a.Capacity())}
	if prot == ReadWrite {
		ps := a.pageSize
		slab := make([]byte, len(s.pages)*ps)
		for i := range s.pages {
			s.pages[i] = Page{data: slab[i*ps : (i+1)*ps : (i+1)*ps], prot: prot}
		}
		return s
	}
	for i := range s.pages {
		s.pages[i] = Page{data: a.zero, prot: prot, shared: true}
	}
	return s
}

// SetHandler installs the fault handler (the DSM protocol layer).
func (s *Space) SetHandler(h FaultHandler) { s.handler = h }

// Arena returns the shared arena geometry.
func (s *Space) Arena() *Arena { return s.arena }

// Page returns the processor's view of page id.
func (s *Space) Page(id PageID) *Page { return &s.pages[id] }

// privatize gives pg its own copy of the bytes it shares, in a buffer
// from the free list when one is there.
func (s *Space) privatize(pg *Page) {
	var buf []byte
	if last := len(s.free) - 1; last >= 0 {
		buf = s.free[last]
		s.free[last] = nil
		s.free = s.free[:last]
		copy(buf, pg.data)
	} else {
		buf = bytes.Clone(pg.data)
	}
	pg.data, pg.shared = buf, false
}

// Protect sets the protection of page id, like mprotect on one page.
// Making a shared page writable materialises its private copy — the
// copy-on-write break — so a ReadWrite page is always private and the
// store accessors need no check of their own.
func (s *Space) Protect(id PageID, p Prot) {
	pg := &s.pages[id]
	if p == ReadWrite && pg.shared {
		s.privatize(pg)
	}
	pg.prot = p
}

// MutableData returns page id's bytes for a protocol write (applying a
// diff), whatever the page's protection; a shared page is made private
// first.
func (s *Space) MutableData(id PageID) []byte {
	pg := &s.pages[id]
	if pg.shared {
		s.privatize(pg)
	}
	return pg.data
}

// CopyPageFrom copies the page contents (not protection) from another
// Space into this one's own bytes: the two never alias afterwards.
func (s *Space) CopyPageFrom(o *Space, id PageID) {
	copy(s.MutableData(id), o.pages[id].data)
}

// SharePageFrom makes page id alias o's bytes copy-on-write instead of
// copying them, used to attach a node to a sealed image (DESIGN.md §9,
// "Host memory"). o's page is frozen, so neither side can write the
// common bytes; neither page may be writable. Sharing an already frozen
// page only reads o, so any number of Spaces may share from it at once.
func (s *Space) SharePageFrom(o *Space, id PageID) {
	if o.pages[id].prot == ReadWrite || s.pages[id].prot == ReadWrite {
		panic(fmt.Sprintf("vm: sharing writable page %d", id))
	}
	s.Alias(id, o.Freeze(id))
}

// Freeze makes page id's current bytes immutable and returns them, for
// the caller to keep as a snapshot that aliases the page: the page is
// marked shared, so its next store breaks copy-on-write into another
// buffer and the returned bytes never change. A writable page becomes
// ReadOnly (a shared page is never writable); any other protection
// stays. Freezing a frozen page only reads it.
func (s *Space) Freeze(id PageID) []byte {
	pg := &s.pages[id]
	if !pg.shared {
		pg.shared = true
	}
	if pg.prot == ReadWrite {
		pg.prot = ReadOnly
	}
	return pg.data
}

// Alias points page id at data — immutable bytes, such as a snapshot
// another Space froze — copy-on-write instead of copying them. The
// page's own private buffer goes on the free list for the next
// copy-on-write break. A writable page cannot alias: it must stay
// private.
func (s *Space) Alias(id PageID, data []byte) {
	pg := &s.pages[id]
	if pg.prot == ReadWrite {
		panic(fmt.Sprintf("vm: aliasing writable page %d", id))
	}
	if len(data) != s.arena.pageSize {
		panic(fmt.Sprintf("vm: aliasing page %d to %d bytes", id, len(data)))
	}
	if !pg.shared {
		s.free = append(s.free, pg.data)
	}
	pg.data, pg.shared = data, true
}

func (s *Space) faultRead(addr Addr) {
	id := s.arena.PageOf(addr)
	s.ReadFaults++
	if s.handler == nil {
		panic(fmt.Sprintf("vm: read fault on page %d with no handler", id))
	}
	s.handler.HandleFault(id, false)
	if s.pages[id].prot == NoAccess {
		panic(fmt.Sprintf("vm: handler left page %d inaccessible after read fault", id))
	}
}

func (s *Space) faultWrite(addr Addr) {
	id := s.arena.PageOf(addr)
	s.WriteFaults++
	if s.handler == nil {
		panic(fmt.Sprintf("vm: write fault on page %d with no handler", id))
	}
	s.handler.HandleFault(id, true)
	if s.pages[id].prot != ReadWrite {
		panic(fmt.Sprintf("vm: handler left page %d non-writable after write fault", id))
	}
}

// ReadF64 loads the float64 at addr, faulting if the page is invalid.
// The value must not straddle a page boundary (allocation code keeps
// elements aligned).
func (s *Space) ReadF64(addr Addr) float64 {
	pg := &s.pages[addr>>s.arena.shift]
	if pg.prot == NoAccess {
		s.faultRead(addr)
	}
	off := int(addr) & s.arena.mask
	return math.Float64frombits(binary.LittleEndian.Uint64(pg.data[off:]))
}

// WriteF64 stores v at addr, faulting if the page is not writable.
func (s *Space) WriteF64(addr Addr, v float64) {
	pg := &s.pages[addr>>s.arena.shift]
	if pg.prot != ReadWrite {
		s.faultWrite(addr)
	}
	off := int(addr) & s.arena.mask
	binary.LittleEndian.PutUint64(pg.data[off:], math.Float64bits(v))
}

// ReadI32 loads the int32 at addr.
func (s *Space) ReadI32(addr Addr) int32 {
	pg := &s.pages[addr>>s.arena.shift]
	if pg.prot == NoAccess {
		s.faultRead(addr)
	}
	off := int(addr) & s.arena.mask
	return int32(binary.LittleEndian.Uint32(pg.data[off:]))
}

// WriteI32 stores v at addr.
func (s *Space) WriteI32(addr Addr, v int32) {
	pg := &s.pages[addr>>s.arena.shift]
	if pg.prot != ReadWrite {
		s.faultWrite(addr)
	}
	off := int(addr) & s.arena.mask
	binary.LittleEndian.PutUint32(pg.data[off:], uint32(v))
}

// ReadI64 loads the int64 at addr.
func (s *Space) ReadI64(addr Addr) int64 {
	pg := &s.pages[addr>>s.arena.shift]
	if pg.prot == NoAccess {
		s.faultRead(addr)
	}
	off := int(addr) & s.arena.mask
	return int64(binary.LittleEndian.Uint64(pg.data[off:]))
}

// WriteI64 stores v at addr.
func (s *Space) WriteI64(addr Addr, v int64) {
	pg := &s.pages[addr>>s.arena.shift]
	if pg.prot != ReadWrite {
		s.faultWrite(addr)
	}
	off := int(addr) & s.arena.mask
	binary.LittleEndian.PutUint64(pg.data[off:], uint64(v))
}
