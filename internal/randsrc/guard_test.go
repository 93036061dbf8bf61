package randsrc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoEagerSeeding keeps program code on the lazy source: any
// rand.NewSource call outside this package pays math/rand's full
// register fill on every seed. Tests and the separate bench module may
// still use math/rand directly as a reference.
func TestNoEagerSeeding(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == self || path == filepath.Join(root, "bench") || name == "testdata" || strings.HasPrefix(name, ".") && path != root {
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
		checked++
		pkg := mathRandName(f)
		if pkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewSource" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d: %s.NewSource seeds eagerly; use randsrc.New or randsrc.NewSource",
					rel, fset.Position(sel.Pos()).Line, pkg)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("no Go files found under %s", root)
	}
}

// mathRandName returns the name file f imports math/rand under, or ""
// when it does not import it.
func mathRandName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != "math/rand" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "rand"
	}
	return ""
}
