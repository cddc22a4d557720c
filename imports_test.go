package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTestsImportEnginetest keeps the references the engine is
// checked against apart from the code they check: no .go file of this
// module but a _test.go file may import repro/internal/enginetest.
func TestOnlyTestsImportEnginetest(t *testing.T) {
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/enginetest" {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed %d files: the walk missed the module", files)
	}
}

// TestMapRangesChooseOrder keeps map iteration order — which differs
// from run to run — out of every output: each range over a map in the
// module's non-test Go either only collects the keys into a slice that
// a sort call takes right after, or carries a "// order-free: <reason>"
// comment on its line or the line above. Types come from the compiler's
// export data (go list -export), which is far quicker than type-checking
// the dependencies from source.
func TestMapRangesChooseOrder(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	type pkg struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard, DepOnly       bool
	}
	var pkgs []pkg
	export := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		export[p.ImportPath] = p.Export
		if !p.Standard && !p.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	sites := 0
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			orderFree := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "// order-free: ") {
						orderFree[fset.Position(c.Pos()).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				block, ok := n.(*ast.BlockStmt)
				if !ok {
					return true
				}
				for i, st := range block.List {
					r, ok := st.(*ast.RangeStmt)
					if !ok {
						continue
					}
					if _, ok := info.TypeOf(r.X).Underlying().(*types.Map); !ok {
						continue
					}
					sites++
					at := fset.Position(r.Pos())
					if !orderFree[at.Line] && !orderFree[at.Line-1] && !collectsThenSorts(r, block.List[i+1:]) {
						t.Errorf("%s: range over a map neither sorts what it collects nor says why its order is free", at)
					}
				}
				return true
			})
		}
	}
	if sites < 10 {
		t.Fatalf("found %d ranges over a map: the walk missed the module", sites)
	}
}

// collectsThenSorts reports whether r's body is one statement appending
// to a slice and the statement after r sorts that slice.
func collectsThenSorts(r *ast.RangeStmt, after []ast.Stmt) bool {
	if len(r.Body.List) != 1 || len(after) == 0 {
		return false
	}
	as, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isCall || len(call.Args) < 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if arg, ok := call.Args[0].(*ast.Ident); !ok || arg.Name != dst.Name {
		return false
	}
	es, ok := after[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := es.X.(*ast.CallExpr)
	if !ok || len(sortCall.Args) == 0 {
		return false
	}
	sel, ok := sortCall.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgName, ok := sel.X.(*ast.Ident)
	arg, isIdent := sortCall.Args[0].(*ast.Ident)
	return ok && (pkgName.Name == "sort" || pkgName.Name == "slices") && strings.HasPrefix(sel.Sel.Name, "S") &&
		isIdent && arg.Name == dst.Name
}
