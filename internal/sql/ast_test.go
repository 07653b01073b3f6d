package sql

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"reflect"
	"slices"
	"testing"
)

// exprNodes holds one value of every concrete type that implements Expr.
// TestWalkRewriteCoverEveryNode checks it against ast.go's declarations, so
// a new node kind has to be listed here, and then has to pass.
var exprNodes = []Expr{
	&ColRef{}, &IntLit{}, &FloatLit{}, &StrLit{}, &DateLit{}, &ParamExpr{},
	&BinExpr{}, &NotExpr{}, &FuncCall{}, &LikeExpr{}, &InExpr{},
	&ExistsExpr{}, &SubqueryExpr{}, &InSubquery{}, &SubstrExpr{},
	&BetweenExpr{}, &CaseExpr{},
}

// TestWalkRewriteCoverEveryNode is the structural check on the one statement
// of the AST's shape: for every node kind, with a distinct sentinel in each
// field of static type Expr and a non-zero value in every other field, walk
// visits the node and then each sentinel exactly once, in field order;
// rewrite with a function that declines everything returns an equal tree
// (String and every scalar field); rewrite with a function that replaces the
// sentinels puts each replacement in its sentinel's field and keeps the rest.
// A node kind walk or rewrite does not know fails all three.
func TestWalkRewriteCoverEveryNode(t *testing.T) {
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared, listed []string
	for _, d := range f.Decls {
		if fd, ok := d.(*goast.FuncDecl); ok && fd.Name.Name == "pos" && fd.Recv != nil {
			declared = append(declared, fd.Recv.List[0].Type.(*goast.StarExpr).X.(*goast.Ident).Name)
		}
	}
	for _, n := range exprNodes {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	slices.Sort(declared)
	slices.Sort(listed)
	if !slices.Equal(declared, listed) {
		t.Fatalf("exprNodes lists %v, ast.go declares %v", listed, declared)
	}

	exprType := reflect.TypeOf((*Expr)(nil)).Elem()
	for _, proto := range exprNodes {
		typ := reflect.TypeOf(proto).Elem()
		t.Run(typ.Name(), func(t *testing.T) {
			node := reflect.New(typ)
			var sentinels []Expr
			for i := 0; i < typ.NumField(); i++ {
				fv := node.Elem().Field(i)
				switch {
				case fv.Type() == exprType:
					s := &ColRef{Name: fmt.Sprintf("op%d", len(sentinels))}
					sentinels = append(sentinels, s)
					fv.Set(reflect.ValueOf(s))
				case fv.Kind() == reflect.String:
					fv.SetString("f" + typ.Field(i).Name)
				case fv.Kind() == reflect.Bool:
					fv.SetBool(true)
				case fv.CanInt():
					fv.SetInt(int64(3 + i))
				case fv.CanFloat():
					fv.SetFloat(2.5)
				case fv.Type() == reflect.TypeOf(Pos{}):
					fv.Set(reflect.ValueOf(Pos{Line: 3, Col: 4}))
				case fv.Type() == reflect.TypeOf([]string(nil)):
					fv.Set(reflect.ValueOf([]string{"x", "y"}))
				case fv.Type() == reflect.TypeOf([]int64(nil)):
					fv.Set(reflect.ValueOf([]int64{1, 2}))
				case fv.Type() == reflect.TypeOf((*SelectStmt)(nil)):
					fv.Set(reflect.ValueOf(&SelectStmt{Star: true, From: []FromItem{{Table: "u", Alias: "u"}}, Limit: -1}))
				default:
					t.Fatalf("field %s has a type this test cannot fill: %s", typ.Field(i).Name, fv.Type())
				}
			}
			e := node.Interface().(Expr)
			before := reflect.New(typ)
			before.Elem().Set(node.Elem())

			var visited []Expr
			walk(e, func(x Expr) bool { visited = append(visited, x); return true })
			if want := append([]Expr{e}, sentinels...); !slices.Equal(visited, want) {
				t.Errorf("walk visited %v, want the node and then each operand once: %v", visited, want)
			}
			visited = nil
			walk(e, func(x Expr) bool { visited = append(visited, x); return false })
			if !slices.Equal(visited, []Expr{e}) {
				t.Errorf("pruned walk visited %v, want the node only", visited)
			}

			same := rewrite(e, func(Expr) (Expr, bool) { return nil, false })
			if same.String() != e.String() || !reflect.DeepEqual(same, e) {
				t.Errorf("rewrite(identity) = %#v, want %#v", same, e)
			}

			want := reflect.New(typ)
			want.Elem().Set(node.Elem())
			for i, j := 0, 0; i < typ.NumField(); i++ {
				if typ.Field(i).Type == exprType {
					want.Elem().Field(i).Set(reflect.ValueOf(&IntLit{V: int64(j)}))
					j++
				}
			}
			got := rewrite(e, func(x Expr) (Expr, bool) {
				if i := slices.Index(sentinels, x); i >= 0 {
					return &IntLit{V: int64(i)}, true
				}
				return nil, false
			})
			if !reflect.DeepEqual(got, want.Interface()) {
				t.Errorf("rewrite(replace operands) = %#v, want %#v", got, want.Interface())
			}
			if !reflect.DeepEqual(e, before.Interface()) {
				t.Errorf("rewrite changed its input: %#v, was %#v", e, before.Interface())
			}
		})
	}
}
