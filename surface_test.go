package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceSkip holds the method names that standard interfaces call
// (fmt.Stringer, error, encoding.TextMarshaler/TextUnmarshaler,
// flag.Value, flag's boolFlag, http.Handler): a method so named is used
// even when no file of the module names it.
var surfaceSkip = []string{"String", "Error", "MarshalText", "UnmarshalText", "Set", "IsBoolFlag", "ServeHTTP"}

// surfaceAllow holds the exported names that only tests use on purpose,
// keyed as TestExportedSurfaceIsUsed reports them.
var surfaceAllow = map[string]string{
	"golden.Check":               "the golden-fixture comparison that cmd/scenario's tests share; it takes a *testing.T",
	"raceflag.Enabled":           "lets the golden tests skip under -race; a build tag is the only way to learn it",
	"sim.MemStats.CheckBalanced": "the ledger's teardown invariant, asserted after runs by the sim and chaos tests",
}

// TestExportedSurfaceIsUsed fails when an exported top-level name or
// method declared under internal/ appears in no non-test file of the
// module: such a name is surface that only tests hold up. The scan is by
// name, without type checking. A package-level name counts as used when
// a file of its own package names it bare or another file names it
// through the package's import; a method counts as used when any file
// selects a member of that name or declares an interface method of that
// name, whatever the type.
func TestExportedSurfaceIsUsed(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // directory -> its non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Declarations by key, with each declaring identifier set aside so
	// it does not count as its own use.
	type decl struct {
		id     *ast.Ident
		method bool
	}
	declared := map[string]decl{}
	isDecl := map[*ast.Ident]bool{}
	for dir, dirFiles := range files {
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			continue
		}
		for _, f := range dirFiles {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					isDecl[d.Name] = true
					if d.Recv == nil {
						declared[pkg+"."+d.Name.Name] = decl{id: d.Name}
					} else if !slices.Contains(surfaceSkip, d.Name.Name) {
						declared[pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = decl{id: d.Name, method: true}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if id.IsExported() {
								isDecl[id] = true
								declared[pkg+"."+id.Name] = decl{id: id}
							}
						}
					}
				}
			}
		}
	}

	// Uses: package-level names as "pkg.Name", methods by name alone.
	pkgName := map[string]string{} // import path -> package name
	for dir, dirFiles := range files {
		pkgName[module+"/"+dir] = dirFiles[0].Name.Name
	}
	used := map[string]bool{}
	selected := map[string]bool{}
	for dir, dirFiles := range files {
		pkg, _ := strings.CutPrefix(dir, "internal/")
		for _, f := range dirFiles {
			imports := map[string]string{} // local name -> pkg key
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				name, ok := pkgName[path]
				if !ok {
					continue
				}
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(path, module+"/internal/")
			}
			sel := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					sel[n.Sel] = true
					selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							used[p+"."+n.Sel.Name] = true
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							selected[id.Name] = true
						}
					}
				case *ast.Ident:
					if !sel[n] && !isDecl[n] {
						used[pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	var unused []string
	for key, d := range declared {
		if d.method && selected[d.id.Name] || !d.method && used[key] {
			if _, ok := surfaceAllow[key]; ok {
				t.Errorf("%s is used outside tests now: drop it from surfaceAllow", key)
			}
			continue
		}
		if _, ok := surfaceAllow[key]; !ok {
			unused = append(unused, key+" ("+fset.Position(d.id.Pos()).String()+")")
		}
	}
	for key := range surfaceAllow {
		if _, ok := declared[key]; !ok {
			t.Errorf("surfaceAllow names %s, which is no longer declared", key)
		}
	}
	slices.Sort(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported name(s) under internal/ appear in no non-test file; delete or unexport each, or add it to surfaceAllow with a reason:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
