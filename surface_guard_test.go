package aiops

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestBenchModuleBuilds vets the separate bench module against the
// program as it stands. The root `go build ./...` never compiles
// bench/, and bench/run.sh builds it before its first run under set -e,
// so deleting or renaming a symbol it uses makes every benchmark run
// exit 1 before any result line.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the bench module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "-C", "bench", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}

// uncalledAllowed lists the exported functions and methods that may
// have no caller in program code, keyed as the guard names them, each
// with the reason it stays.
var uncalledAllowed = map[string]string{
	"internal/gateway.Severity.MarshalJSON": "called by encoding/json through json.Marshaler",
}

// TestEveryExportHasAProgramCaller keeps the program free of exported
// surface that only tests reach. Program code is every non-test .go
// file in the repository, the separate bench module included. An
// exported top-level function passes when some program file refers to
// it as pkg.Name (through that file's imports) or by its bare name
// inside its own package. A selector's field or method name, a
// composite-literal key, a field or parameter name and an identifier the
// parser resolves to a local variable, type or constant are not bare
// references. An exported method passes when its name is
// selected, or declared in an interface, anywhere in program code;
// that check is by name only, so it errs toward passing. The root
// aiops package is the public facade and is exempt; everything else
// without a caller is deleted, moved into a _test.go file, or listed
// in uncalledAllowed with its reason.
func TestEveryExportHasAProgramCaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		key    string // pkgdir.Name or pkgdir.Recv.Name, as reported
		ref    string // what a caller names: import/path.Name, or the bare method name
		method bool
		pos    token.Position
	}
	var (
		fset        = token.NewFileSet()
		decls       []decl
		usedFuncs   = map[string]bool{} // import/path.Name referenced
		usedMethods = map[string]bool{} // names selected or declared in an interface
		files       = 0
	)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		rel = filepath.ToSlash(rel)
		self := path.Join("repro", rel) // the module path is repro; bench/ is repro/bench
		// Every package in the repository is named after its directory,
		// so an unnamed import binds the last path element.
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		// notRefs holds identifiers that name something other than a
		// package-level function: declared names, selected names,
		// composite-literal keys and field or parameter names.
		notRefs := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			notRefs[fd.Name] = true
			if !fd.Name.IsExported() || rel == "." {
				continue
			}
			dc := decl{key: rel + "." + fd.Name.Name, ref: self + "." + fd.Name.Name, pos: fset.Position(fd.Pos())}
			if fd.Recv != nil {
				dc.key = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				dc.ref, dc.method = fd.Name.Name, true
			}
			decls = append(decls, dc)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notRefs[n.Sel] = true
				usedMethods[n.Sel.Name] = true
				if id, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[id.Name]; ok {
						usedFuncs[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						usedMethods[name.Name] = true
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					notRefs[id] = true // a field name; a function value is never a map key
				}
			case *ast.Field:
				for _, name := range n.Names {
					notRefs[name] = true
				}
			case *ast.Ident:
				// An identifier the parser leaves unresolved is declared
				// at package level in another file (or is predeclared).
				if !notRefs[n] && (n.Obj == nil || n.Obj.Kind == ast.Fun) {
					usedFuncs[self+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go files found under %s", root)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := usedFuncs
		if d.method {
			used = usedMethods
		}
		if !used[d.ref] && uncalledAllowed[d.key] == "" {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			t.Errorf("%s:%d: %s is exported but no program code calls it; delete it, move it into a _test.go file, or allowlist it with a reason",
				rel, d.pos.Line, d.key)
		}
	}
	for key := range uncalledAllowed {
		if !seen[key] {
			t.Errorf("uncalledAllowed lists %s, which is not an exported function or method", key)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return fmt.Sprintf("%T", x)
}
