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
	"vectorh/internal/plan"
	"vectorh/internal/rewriter"
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
	engine := []string{"DeleteWhere", "InsertRows", "Run", "UpdateWhere"}
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

// TestOneExchangeRuntime guards the one exchange runtime, exec's producer
// goroutines and consumer ports: the distributed exchanges in internal/mpp
// are routes over it and start no goroutine and make no channel of their
// own, internal/mpi is a codec and traffic counters with no communicator
// beside them, and no configuration picks a fan-out strategy.
func TestOneExchangeRuntime(t *testing.T) {
	files, _ := filepath.Glob("internal/mpp/*.go")
	mpi, _ := filepath.Glob("internal/mpi/*.go")
	if len(files) == 0 || len(mpi) == 0 {
		t.Fatal("found no files under internal/mpp or internal/mpi; did the packages move?")
	}
	fset := token.NewFileSet()
	for _, path := range append(files, mpi...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		inMPP := strings.HasPrefix(path, filepath.Join("internal", "mpp"))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if inMPP {
					t.Errorf("%s: a go statement in internal/mpp: senders are exec.NewExchange producers", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 && inMPP {
					if _, ok := n.Args[0].(*ast.ChanType); ok {
						t.Errorf("%s: a channel made in internal/mpp: exec's exchange owns the channels", fset.Position(n.Pos()))
					}
				}
			case *ast.TypeSpec:
				if !inMPP && n.Name.Name == "Comm" {
					t.Errorf("%s: internal/mpi declares a Comm type: messages travel on exec's exchange channels", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(core.Config{}), reflect.TypeOf(rewriter.Env{})} {
		if _, ok := typ.FieldByName("Mode"); ok {
			t.Errorf("%v has a Mode field: there is one fan-out strategy", typ)
		}
	}
}

// TestOneCardinalityModel guards the one cardinality model: the SQL join
// orderer and the rewriter's estimates measure a filter through
// expr.Selectivity over one plan.Stats, so internal/sql keeps no selectivity
// guess of its own, no statistics interface beside plan.Stats and no
// estimate nothing reads, and the catalog's table metadata carries no row
// count beside the live one.
func TestOneCardinalityModel(t *testing.T) {
	files, _ := filepath.Glob("internal/sql/*.go")
	if len(files) == 0 {
		t.Fatal("found no files under internal/sql; did the package move?")
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch n.Name {
				case "conjSelectivity", "mirrorCmp", "defaultSel":
					t.Errorf("%s: %s in internal/sql: selectivity is expr.Selectivity's", fset.Position(n.Pos()), n.Name)
				}
			case *ast.TypeSpec:
				switch typ := n.Type.(type) {
				case *ast.InterfaceType:
					for _, m := range typ.Methods.List {
						for _, name := range m.Names {
							if name.Name == "TableRows" || name.Name == "ColumnRange" {
								t.Errorf("%s: interface %s restates plan.Stats", fset.Position(n.Pos()), n.Name.Name)
							}
						}
					}
				case *ast.StructType:
					for _, fld := range typ.Fields.List {
						for _, name := range fld.Names {
							if n.Name.Name == "source" && name.Name == "rows" {
								t.Errorf("%s: source has a rows field: the estimate lives in the join orderer", fset.Position(name.Pos()))
							}
						}
					}
				}
			}
			return true
		})
	}
	if _, ok := reflect.TypeOf(rewriter.TableInfo{}).FieldByName("Rows"); ok {
		t.Error("rewriter.TableInfo has a Rows field: the row count is the catalog's TableRows")
	}
}

// TestOnePredicateOneEvaluator guards the single statement of a scan filter:
// a logical filter is a child and a predicate, nothing restating the
// predicate beside it; a scan is asked for a table, columns, that predicate
// (the intervals it skips on are derived from it in the scan, never stated
// beside it), code vectors or not, and clustered order or not; and the scan
// does not evaluate — no function under internal/core turns a vector into a
// selection, that is expr.Filter's job.
func TestOnePredicateOneEvaluator(t *testing.T) {
	fields := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		return names
	}
	if got, want := fields(reflect.TypeOf(plan.FilterNode{})), []string{"Child", "Pred"}; !reflect.DeepEqual(got, want) {
		t.Errorf("plan.FilterNode fields = %v, want %v", got, want)
	}
	if got, want := fields(reflect.TypeOf(rewriter.ScanSpec{})), []string{"Table", "Cols", "Filter", "Codes", "Ordered"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rewriter.ScanSpec fields = %v, want %v", got, want)
	}

	typeText := func(e ast.Expr) string {
		var sb strings.Builder
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StarExpr:
				sb.WriteString("*")
			case *ast.ArrayType:
				sb.WriteString("[]")
			case *ast.SelectorExpr:
				sb.WriteString(n.X.(*ast.Ident).Name + "." + n.Sel.Name)
				return false
			case *ast.Ident:
				sb.WriteString(n.Name)
			}
			return true
		})
		return sb.String()
	}
	hasType := func(fl *ast.FieldList, want string) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			if typeText(f.Type) == want {
				return true
			}
		}
		return false
	}
	files, _ := filepath.Glob("internal/core/*.go")
	if len(files) == 0 {
		t.Fatal("found no files under internal/core; did the package move?")
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			// Declarations, literals and func-typed fields all hold a FuncType.
			if typ, ok := n.(*ast.FuncType); ok && hasType(typ.Params, "*vector.Vec") && hasType(typ.Results, "[]int32") {
				t.Errorf("%s: a func from *vector.Vec to a selection: the scan calls expr.Filter, it does not evaluate",
					fset.Position(n.Pos()))
			}
			return true
		})
	}
}

// TestOneTraversalOfTheSQLAST guards the one statement of the SQL AST's
// operand structure: walk and rewrite in ast.go (and lowerExpr, which maps
// each node kind to a plan expression by nature). A function anywhere else in
// internal/sql with both a `case *BetweenExpr` and a `case *CaseExpr` is the
// fingerprint of a hand-copied walker — the shape the twelve visitors over
// walk/rewrite replaced — and would have to learn every future node kind
// separately.
func TestOneTraversalOfTheSQLAST(t *testing.T) {
	files, _ := filepath.Glob("internal/sql/*.go")
	if len(files) == 0 {
		t.Fatal("found no files under internal/sql; did the package move?")
	}
	fset := token.NewFileSet()
	foundLowerExpr := false
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			foundLowerExpr = foundLowerExpr || fd.Name.Name == "lowerExpr"
			cases := map[string]bool{}
			ast.Inspect(fd, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if st, ok := e.(*ast.StarExpr); ok {
							if id, ok := st.X.(*ast.Ident); ok {
								cases[id.Name] = true
							}
						}
					}
				}
				return true
			})
			allowed := filepath.Base(path) == "ast.go" || fd.Name.Name == "lowerExpr"
			if cases["BetweenExpr"] && cases["CaseExpr"] && !allowed {
				t.Errorf("%s: %s switches over the expression node kinds; make it a visitor over walk/rewrite (ast.go)",
					fset.Position(fd.Pos()), fd.Name.Name)
			}
		}
	}
	if !foundLowerExpr {
		t.Error("found no lowerExpr in internal/sql; did it move?")
	}
}

// TestOneClientPath guards the shell's one way to run a statement: in both
// modes vectorh-sql drives a server through server.Client, so nothing under
// cmd/vectorh-sql compiles, runs or binds a statement in process; and the
// server's counters have one wire surface, the metrics op, with no JSON
// stats op beside it.
func TestOneClientPath(t *testing.T) {
	inProcess := map[string]bool{"CompileSQL": true, "Run": true, "QuerySQL": true, "QueryStreamSQL": true,
		"QueryProfileSQL": true, "ExplainSQL": true, "ExecSQL": true}
	cmd, _ := filepath.Glob("cmd/vectorh-sql/*.go")
	srv, _ := filepath.Glob("internal/server/*.go")
	if len(cmd) == 0 || len(srv) == 0 {
		t.Fatal("found no files under cmd/vectorh-sql or internal/server; did they move?")
	}
	fset := token.NewFileSet()
	for _, path := range append(cmd, srv...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		inCmd := strings.HasPrefix(path, filepath.Join("cmd", "vectorh-sql"))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkg, _ := n.X.(*ast.Ident)
				if inCmd && (inProcess[n.Sel.Name] || pkg != nil && pkg.Name == "sql" && n.Sel.Name == "Prepare") {
					t.Errorf("%s: vectorh-sql uses %s in process: statements run through server.Client", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if !inCmd && name.Name == "OpStats" {
						t.Errorf("%s: internal/server declares OpStats: server counters travel as metrics samples", fset.Position(name.Pos()))
					}
				}
			}
			return true
		})
	}
}
