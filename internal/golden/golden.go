// Package golden compares rendered output against checked-in fixture
// files. cmd/scenario's golden tests diff their CI-size renders with it:
// the determinism core (DESIGN.md §7) guarantees byte-identical
// renders, so any fixture mismatch is a real change in the numbers and
// must be an explicit edit — regenerate with `go test ./cmd/... -update`.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check compares got with the fixture at path (relative to the test's
// working directory, conventionally testdata/<name>.golden). When
// update is true the fixture is rewritten instead and the test logs the
// new size.
func Check(t *testing.T, got []byte, path string, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("output differs from %s (if the change is intended, regenerate with -update):\n%s",
		path, diffLines(string(want), string(got)))
}

// diffLines renders a minimal line diff (full context is the table
// itself, so plain want/got markers read fine).
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		if i < len(wl) {
			fmt.Fprintf(&b, "-%4d| %s\n", i+1, w)
		}
		if i < len(gl) {
			fmt.Fprintf(&b, "+%4d| %s\n", i+1, g)
		}
	}
	return b.String()
}
