package vectorh_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vectorh"
	"vectorh/internal/core"
)

// TestExecutionEntryPoints guards the one query path: the exported
// execution/DML methods of the engine and of the façade (which promotes the
// engine's) are exactly these. A reintroduced context-free twin, options
// variant or prepared-statement shortcut fails here.
func TestExecutionEntryPoints(t *testing.T) {
	entry := regexp.MustCompile(`^(Run|Query|Exec|Insert|Delete|Update|Prepare)`)
	entryPoints := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; entry.MatchString(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	engine := []string{"DeleteWhere", "InsertRows", "Query", "Run", "UpdateWhere"}
	facade := append([]string{"ExecSQL", "QueryProfileSQL", "QuerySQL", "QueryStreamProfileSQL", "QueryStreamSQL"}, engine...)
	sort.Strings(facade)

	if got := entryPoints(reflect.TypeOf(&core.Engine{})); !reflect.DeepEqual(got, engine) {
		t.Errorf("*core.Engine entry points = %v, want %v", got, engine)
	}
	if got := entryPoints(reflect.TypeOf(&vectorh.DB{})); !reflect.DeepEqual(got, facade) {
		t.Errorf("*vectorh.DB entry points = %v, want %v", got, facade)
	}
}

// TestExchangeOperatorsReachable guards against exchange operators only
// their own unit tests can construct: every exported Xchg*/DXchg*
// constructor must be used by the rewriter (which instantiates physical
// plans) or by bench/ (which meters operators in isolation).
func TestExchangeOperatorsReachable(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	xchg := regexp.MustCompile(`^D?Xchg`)
	unused := map[string]bool{} // "exec.XchgUnion" etc.
	for _, path := range []string{"internal/exec/xchg.go", "internal/mpp/dxchg.go"} {
		f := parse(path)
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && xchg.MatchString(fn.Name.Name) {
				unused[f.Name.Name+"."+fn.Name.Name] = true
			}
		}
	}
	if len(unused) == 0 {
		t.Fatal("found no exchange constructors; did the files move?")
	}
	for _, dir := range []string{"internal/rewriter", "bench"} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			ast.Inspect(parse(path), func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok {
						delete(unused, pkg.Name+"."+sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	for name := range unused {
		t.Errorf("%s is used by no rewriter rule and not by bench/: delete it or use it", name)
	}
}
