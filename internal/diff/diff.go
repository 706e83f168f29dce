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

// Diff is the run-length encoding of the modifications to one page.
// A nil/empty Runs means the page was compared and found unchanged.
type Diff struct {
	Runs []Run
}

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
// payloads are then copied into one allocation shared by all runs.
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
		return Diff{}
	}
	payload := make([]byte, total)
	runs := make([]Run, len(bounds))
	off := 0
	for k, b := range bounds {
		size := copy(payload[off:], cur[b[0]:b[1]])
		runs[k] = Run{Off: b[0], Data: payload[off : off+size : off+size]}
		off += size
	}
	return Diff{Runs: runs}
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

// Apply writes the diff's runs into dst.
func (d Diff) Apply(dst []byte) {
	for _, r := range d.Runs {
		copy(dst[r.Off:], r.Data)
	}
}

// WireBytes is the size of the diff on the wire: run payloads plus
// per-run headers.
func (d Diff) WireBytes() int {
	n := 0
	for _, r := range d.Runs {
		n += WireHeaderB + len(r.Data)
	}
	return n
}

// Empty reports whether the diff carries no modifications.
func (d Diff) Empty() bool { return len(d.Runs) == 0 }

// Twin returns a copy of page suitable for later Encode.
func Twin(page []byte) []byte {
	t := make([]byte, len(page))
	copy(t, page)
	return t
}
