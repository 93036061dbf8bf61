package aiops

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goEnv is the environment the guards run the go tool in: no workspace,
// no module proxy and no ambient flags, so they work offline and see
// the repository as it is.
func goEnv() []string {
	return append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=")
}

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
	cmd.Env = goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}

// programFile is one parsed non-test .go file of the repository.
type programFile struct {
	rel string // its directory relative to the repository root, slash-separated
	f   *ast.File
}

// parseProgram parses every non-test .go file in the repository, the
// separate bench module included, in walk order.
func parseProgram(t *testing.T) (root string, fset *token.FileSet, files []programFile) {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset = token.NewFileSet()
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
		rel, _ := filepath.Rel(root, filepath.Dir(p))
		files = append(files, programFile{rel: filepath.ToSlash(rel), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files found under %s", root)
	}
	return root, fset, files
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
	root, fset, files := parseProgram(t)
	type decl struct {
		key    string // pkgdir.Name or pkgdir.Recv.Name, as reported
		ref    string // what a caller names: import/path.Name, or the bare method name
		method bool
		pos    token.Position
	}
	var (
		decls       []decl
		usedFuncs   = map[string]bool{} // import/path.Name referenced
		usedMethods = map[string]bool{} // names selected or declared in an interface
	)
	for _, pf := range files {
		f, rel := pf.f, pf.rel
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

// unreadAllowed lists the exported struct fields under internal/ that
// may have no read in program code, keyed as the guard names them
// (pkgdir.Type.Field), or a whole struct type (pkgdir.Type), each with
// the reason it stays.
var unreadAllowed = map[string]string{
	"internal/eval.HTMLReport":  "read by html/template when Render executes the report page",
	"internal/eval.HTMLSection": "read by html/template when Render executes the report page",
	"internal/netsim.DirLink":   "a map key: every field is read when the key is hashed and compared",
	"internal/kb.Component":     "KB corpus content (kind, team, notes); the corpus is kept as written",
	"internal/kb.TSG.Title":     "KB corpus content, the guide's title; the corpus is kept as written",
	"internal/kb.TSGStep":       "KB corpus content; the guide executor RunTSG in baseline's tests reads the steps",
}

// TestEveryFieldHasAProgramReader keeps the program free of state that
// is computed and stored but never read. Every package of both
// modules, the separate bench module included, is type-checked from
// its non-test files, with its imports taken from the compiler's
// export data, so a read is matched to the field it selects and not
// to a field of another type with the same name: bench/ reading a
// gateway record's Region does not excuse an unread Flow.Region. A
// read is a field selection that is not the target of an assignment
// or an increment, an index into the field on the left of an
// assignment included; taking its address counts as a read, and so
// does reaching a promoted field or method through an embedded one.
// An exported field of a package-level struct type under internal/
// passes when it has a read in program code, when its type carries a
// json tag on any field (it is read by encoding/json), or when it or
// its type is listed in unreadAllowed with its reason; anything else
// is deleted with the code that computes it.
func TestEveryFieldHasAProgramReader(t *testing.T) {
	if testing.Short() {
		t.Skip("lists both modules' export data")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	root, fset, files := parseProgram(t)

	// Both modules' export data: bench/ builds the same program
	// packages, so the first listing of an import path serves both.
	exports := map[string]string{}
	for _, mod := range []string{".", "bench"} {
		cmd := exec.Command(goBin, "-C", mod, "list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}", "./...")
		cmd.Env = goEnv()
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go -C %s list -export: %v\n%s", mod, err, stderr.Bytes())
		}
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			if ip, file, ok := strings.Cut(sc.Text(), " "); ok && file != "" && exports[ip] == "" {
				exports[ip] = file
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(file)
	})

	pkgs := map[string][]*ast.File{} // package dir -> its files
	for _, pf := range files {
		pkgs[pf.rel] = append(pkgs[pf.rel], pf.f)
	}
	dirs := make([]string, 0, len(pkgs))
	for dir := range pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)

	type field struct {
		typ, key string // pkgdir.Type and pkgdir.Type.Field, as reported
		pos      token.Position
	}
	var fields []field
	read := map[string]bool{}
	// markRead records the fields a selection reads. Every embedded
	// field on its path is read; the selected field itself is read
	// unless the selection is an assignment target.
	markRead := func(sel *types.Selection, written bool) {
		typ, path := sel.Recv(), sel.Index()
		for i, idx := range path {
			if p, ok := types.Unalias(typ).(*types.Pointer); ok {
				typ = p.Elem()
			}
			named, _ := types.Unalias(typ).(*types.Named)
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				return
			}
			last := i == len(path)-1
			if last && sel.Kind() != types.FieldVal {
				return
			}
			if named != nil && named.Obj().Pkg() != nil && !(last && written) {
				ip := strings.TrimPrefix(named.Obj().Pkg().Path(), "repro/")
				read[ip+"."+named.Origin().Obj().Name()+"."+st.Field(idx).Name()] = true
			}
			typ = st.Field(idx).Type()
		}
	}
	for _, dir := range dirs {
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path.Join("repro", dir), fset, pkgs[dir], info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		written := map[*ast.SelectorExpr]bool{}
		target := func(x ast.Expr) {
			for {
				switch e := x.(type) {
				case *ast.ParenExpr:
					x = e.X
					continue
				case *ast.IndexExpr:
					x = e.X
					continue
				case *ast.SelectorExpr:
					written[e] = true
				}
				return
			}
		}
		for _, f := range pkgs[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
		for se, sel := range info.Selections {
			markRead(sel, written[se])
		}
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || jsonTagged(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fv := st.Field(i); fv.Exported() {
					typ := dir + "." + name
					fields = append(fields, field{typ: typ, key: typ + "." + fv.Name(), pos: fset.Position(fv.Pos())})
				}
			}
		}
	}
	seen := map[string]bool{}
	for _, f := range fields {
		seen[f.typ], seen[f.key] = true, true
		if !read[f.key] && unreadAllowed[f.key] == "" && unreadAllowed[f.typ] == "" {
			rel, _ := filepath.Rel(root, f.pos.Filename)
			t.Errorf("%s:%d: %s is set but no program code reads it; delete it with the code that computes it, or allowlist it with a reason",
				rel, f.pos.Line, f.key)
		}
	}
	for key := range unreadAllowed {
		if !seen[key] {
			t.Errorf("unreadAllowed lists %s, which is not a checked struct type or exported field", key)
		}
	}
}

// jsonTagged reports whether any field of st carries a json tag, which
// makes the whole type encoding/json's to read.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}
