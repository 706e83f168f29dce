// Package diff implements the multiple-writer protocol's twins and
// run-length-encoded diffs (§2 of the paper): a twin is an unmodified
// copy of a page saved before the first write; a diff is a run-length
// encoding of the bytes that changed, produced by comparing the twin to
// the current page contents at the next synchronization point.
package diff

import (
	"encoding/binary"
	"math/bits"
)

// Run is one contiguous stretch of modified bytes within a page.
type Run struct {
	Off  int    // byte offset within the page
	Data []byte // the new bytes
}

// Diff is the run-length encoding of the modifications to one page, in
// one buffer: for each run in ascending offset order, a hostHeaderB
// header (offset, then length, each a little-endian uint32) followed by
// the run's bytes. A nil/empty Diff means the page was compared and
// found unchanged. The header is the host's layout, not the wire's:
// WireBytes prices WireHeaderB per run.
type Diff []byte

// hostHeaderB is the per-run header in a Diff's buffer. 32-bit fields,
// because the page size is a free parameter.
const hostHeaderB = 8

// WireHeaderB is the per-run wire overhead (offset + length fields).
const WireHeaderB = 4

// Encode compares twin and cur (which must be the same length) and
// returns the run-length encoding of their differences. minGap merges
// runs separated by fewer than minGap identical bytes, trading a few
// redundant bytes for fewer runs — TreadMarks uses a small gap for the
// same reason; 8 is a reasonable default. An identical stretch that
// reaches the end of the page is never merged, whatever its length.
//
// The scan works a word at a time and only records run boundaries; the
// headers and payloads are then written into one allocation.
func Encode(twin, cur []byte, minGap int) Diff {
	if len(twin) != len(cur) {
		panic("diff: twin and page differ in length")
	}
	n := len(cur)
	// Run boundaries [start, end). Up to 64 runs stay on the stack; a
	// page with more spills to the heap through append.
	var stack [64][2]int
	bounds := stack[:0]
	total := 0
	for i := nextDiff(twin, cur, 0); i < n; {
		// i is a differing byte. Extend the run over differing stretches
		// and the short interior gaps between them; it ends, on a
		// differing byte, before a gap of minGap or one that reaches n.
		start, end := i, 0
		for {
			end = nextEqual(twin, cur, i+1)
			i = nextDiff(twin, cur, end)
			if i == n || i-end >= minGap {
				break
			}
		}
		bounds = append(bounds, [2]int{start, end})
		total += end - start
	}
	if len(bounds) == 0 {
		return nil
	}
	d := make(Diff, hostHeaderB*len(bounds)+total)
	off := 0
	for _, b := range bounds {
		binary.LittleEndian.PutUint32(d[off:], uint32(b[0]))
		binary.LittleEndian.PutUint32(d[off+4:], uint32(b[1]-b[0]))
		off += hostHeaderB
		off += copy(d[off:], cur[b[0]:b[1]])
	}
	return d
}

// nextDiff returns the first index at or after i where a and b differ,
// or len(a) if they agree from i on.
func nextDiff(a, b []byte, i int) int {
	n := len(a)
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < n && a[i] == b[i]; i++ {
	}
	return i
}

// nextEqual returns the first index at or after i where a and b agree,
// or len(a) if they differ from i on.
func nextEqual(a, b []byte, i int) int {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	n := len(a)
	for ; i+8 <= n; i += 8 {
		x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:])
		// Zero-byte test: the lowest set bit of z marks the first zero
		// byte of x exactly (borrows only disturb the bytes above it).
		if z := (x - lo) &^ x & hi; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for ; i < n && a[i] != b[i]; i++ {
	}
	return i
}

// next decodes the run whose header starts at d[i] and returns it with
// the index of the following header.
func (d Diff) next(i int) (Run, int) {
	off := int(binary.LittleEndian.Uint32(d[i:]))
	size := int(binary.LittleEndian.Uint32(d[i+4:]))
	i += hostHeaderB
	return Run{Off: off, Data: d[i : i+size : i+size]}, i + size
}

// Apply writes the diff's runs into dst.
func (d Diff) Apply(dst []byte) {
	for i := 0; i < len(d); {
		var r Run
		r, i = d.next(i)
		copy(dst[r.Off:], r.Data)
	}
}

// WireBytes is the size of the diff on the wire: run payloads plus
// per-run headers.
func (d Diff) WireBytes() int {
	n := 0
	for i := 0; i < len(d); {
		var r Run
		r, i = d.next(i)
		n += WireHeaderB + len(r.Data)
	}
	return n
}

// Twin returns a copy of page suitable for later Encode.
func Twin(page []byte) []byte {
	t := make([]byte, len(page))
	copy(t, page)
	return t
}
