package scenario

import (
	"flag"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/keys.golden")

// TestShippedSpecKeys pins the content address of every spec under
// scenarios/ (subdirectories included): a change to the decoder, the
// request it builds or the canonical encoding that moves any shipped
// spec's key fails here, before disk entries and goldens move with it.
// Regenerate with -update only for a change meant to move a key.
func TestShippedSpecKeys(t *testing.T) {
	const root = "../../scenarios"
	var b strings.Builder
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !IsSpecFile(path) {
			return err
		}
		spec, err := Load(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(&b, "%s %s\n", filepath.ToSlash(rel), spec.Request().Key())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, []byte(b.String()), "testdata/keys.golden", *update)
}
