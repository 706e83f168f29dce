package apps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoHandWrittenDescriptors keeps the compiler loop closed: every
// descriptor a backend passes to Validate is bound from a compiled
// kernel (compiler.MustBind), so no non-test file under internal/apps
// may spell out a core.Desc composite literal, bare or as an elided
// element of a slice, array or map literal.
func TestNoHandWrittenDescriptors(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if isCoreDesc(lit.Type) {
				t.Errorf("%s: core.Desc literal; bind the descriptor from a compiled kernel instead", fset.Position(lit.Pos()))
			}
			var elem ast.Expr
			switch x := lit.Type.(type) {
			case *ast.ArrayType:
				elem = x.Elt
			case *ast.MapType:
				elem = x.Value
			}
			if !isCoreDesc(elem) {
				return true
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
					t.Errorf("%s: core.Desc literal; bind the descriptor from a compiled kernel instead", fset.Position(inner.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isCoreDesc reports whether e names the type core.Desc.
func isCoreDesc(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Desc" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "core"
}
