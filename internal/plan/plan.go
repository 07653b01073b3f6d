package plan

import (
	"fmt"

	"vectorh/internal/vector"
)

// Catalog resolves table metadata for schema inference.
type Catalog interface {
	// TableSchema returns the schema of a table.
	TableSchema(name string) (vector.Schema, error)
}

// Stats is the catalog's statistics, the inputs of the one cardinality
// model (expr.Selectivity): a table's live row count and the MinMax value
// range of an integer-backed column (ints, dates and decimals, in storage
// units), ok only with lo <= hi. The SQL join orderer and the rewriter read
// the same two.
type Stats interface {
	TableRows(table string) (int64, error)
	ColumnRange(table, col string) (lo, hi int64, ok bool)
}

// Node is a logical plan node.
type Node interface {
	// Schema infers the output schema against a catalog.
	Schema(cat Catalog) (vector.Schema, error)
}

// ScanNode reads a projection of a base table.
type ScanNode struct {
	Table string
	Cols  []string // nil = all columns
}

// Scan builds a table scan.
func Scan(table string, cols ...string) *ScanNode { return &ScanNode{Table: table, Cols: cols} }

// Schema implements Node.
func (n *ScanNode) Schema(cat Catalog) (vector.Schema, error) {
	full, err := cat.TableSchema(n.Table)
	if err != nil {
		return nil, err
	}
	if n.Cols == nil {
		return full, nil
	}
	out := make(vector.Schema, 0, len(n.Cols))
	for _, c := range n.Cols {
		f, err := full.Field(c)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// FilterNode applies a predicate, and the predicate is all a client states:
// when the child is a scan, the rewriter hands the bound predicate to the
// scan, which skips blocks on the MinMax intervals it implies (expr.Bounds),
// evaluates it itself and late-materializes the other columns.
type FilterNode struct {
	Child Node
	Pred  Expr
}

// Filter builds a selection.
func Filter(child Node, pred Expr) *FilterNode { return &FilterNode{Child: child, Pred: pred} }

// Schema implements Node.
func (n *FilterNode) Schema(cat Catalog) (vector.Schema, error) { return n.Child.Schema(cat) }

// NamedExpr is a projected expression with an output name.
type NamedExpr struct {
	Name string
	Expr Expr
}

// As names an expression.
func As(name string, e Expr) NamedExpr { return NamedExpr{name, e} }

// ProjectNode computes expressions.
type ProjectNode struct {
	Child Node
	Exprs []NamedExpr
}

// Project builds a projection.
func Project(child Node, exprs ...NamedExpr) *ProjectNode { return &ProjectNode{child, exprs} }

// Schema implements Node.
func (n *ProjectNode) Schema(cat Catalog) (vector.Schema, error) {
	cs, err := n.Child.Schema(cat)
	if err != nil {
		return nil, err
	}
	out := make(vector.Schema, 0, len(n.Exprs))
	for _, ne := range n.Exprs {
		t, err := ne.Expr.Type(cs)
		if err != nil {
			return nil, fmt.Errorf("plan: project %q: %w", ne.Name, err)
		}
		out = append(out, vector.Field{Name: ne.Name, Type: t})
	}
	return out, nil
}

// AggFuncName enumerates logical aggregates.
type AggFuncName string

// Logical aggregate functions.
const (
	Sum           AggFuncName = "sum"
	Count         AggFuncName = "count"
	CountStar     AggFuncName = "count(*)"
	Min           AggFuncName = "min"
	Max           AggFuncName = "max"
	Avg           AggFuncName = "avg"
	CountDistinct AggFuncName = "count(distinct)"
)

// AggItem is one aggregate with an output name.
type AggItem struct {
	Name string
	Func AggFuncName
	Arg  Expr // zero Expr for CountStar
}

// A builds an aggregate item.
func A(name string, fn AggFuncName, arg Expr) AggItem { return AggItem{name, fn, arg} }

// AStar builds COUNT(*).
func AStar(name string) AggItem { return AggItem{Name: name, Func: CountStar} }

// AggregateNode groups and aggregates.
type AggregateNode struct {
	Child   Node
	GroupBy []string // bare column names of the child schema
	Aggs    []AggItem
}

// Aggregate builds a group-by.
func Aggregate(child Node, groupBy []string, aggs ...AggItem) *AggregateNode {
	return &AggregateNode{child, groupBy, aggs}
}

// Schema implements Node.
func (n *AggregateNode) Schema(cat Catalog) (vector.Schema, error) {
	cs, err := n.Child.Schema(cat)
	if err != nil {
		return nil, err
	}
	out := make(vector.Schema, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		f, err := cs.Field(g)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	for _, a := range n.Aggs {
		var t vector.Type
		switch a.Func {
		case Count, CountStar, CountDistinct:
			t = vector.TInt64
		case Avg:
			t = vector.TFloat64
		default:
			at, err := a.Arg.Type(cs)
			if err != nil {
				return nil, err
			}
			t = at // min/max keep their argument's type
			if a.Func == Sum && t.Kind == vector.Int32 {
				t = vector.TInt64
			}
		}
		out = append(out, vector.Field{Name: a.Name, Type: t})
	}
	return out, nil
}

// JoinKind enumerates logical join types.
type JoinKind uint8

// Logical join types. The left child is the probe/preserved side.
const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
	SemiJoin
	AntiJoin
)

// JoinNode joins two children on equality keys.
type JoinNode struct {
	Left, Right Node
	Kind        JoinKind
	LeftKeys    []string
	RightKeys   []string
	// ExtraPred optionally filters joined rows (evaluated over the join
	// output schema).
	ExtraPred *Expr
}

// Join builds an equality join.
func Join(kind JoinKind, left, right Node, leftKeys, rightKeys []string) *JoinNode {
	return &JoinNode{Left: left, Right: right, Kind: kind, LeftKeys: leftKeys, RightKeys: rightKeys}
}

// On adds a residual predicate over the join output.
func (n *JoinNode) On(pred Expr) *JoinNode { n.ExtraPred = &pred; return n }

// MatchedCol is the implicit boolean column appended by left outer joins.
const MatchedCol = "__matched"

// Schema implements Node.
func (n *JoinNode) Schema(cat Catalog) (vector.Schema, error) {
	ls, err := n.Left.Schema(cat)
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case SemiJoin, AntiJoin:
		return ls, nil
	}
	rs, err := n.Right.Schema(cat)
	if err != nil {
		return nil, err
	}
	out := append(ls.Clone(), rs...)
	if n.Kind == LeftOuterJoin {
		out = append(out, vector.Field{Name: MatchedCol, Type: vector.TBool})
	}
	return out, nil
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Asc builds an ascending order key.
func Asc(e Expr) OrderKey { return OrderKey{Expr: e} }

// Desc builds a descending order key.
func Desc(e Expr) OrderKey { return OrderKey{Expr: e, Desc: true} }

// OrderByNode sorts, optionally truncating to Limit rows (TopN when >= 0).
type OrderByNode struct {
	Child Node
	Keys  []OrderKey
	Limit int64 // -1 = no limit
}

// OrderBy builds a sort.
func OrderBy(child Node, keys ...OrderKey) *OrderByNode {
	return &OrderByNode{Child: child, Keys: keys, Limit: -1}
}

// Top builds a sort with FIRST n semantics.
func Top(child Node, n int64, keys ...OrderKey) *OrderByNode {
	return &OrderByNode{Child: child, Keys: keys, Limit: n}
}

// Schema implements Node.
func (n *OrderByNode) Schema(cat Catalog) (vector.Schema, error) { return n.Child.Schema(cat) }

// LimitNode truncates.
type LimitNode struct {
	Child Node
	N     int64
}

// Limit builds a LIMIT.
func Limit(child Node, n int64) *LimitNode { return &LimitNode{child, n} }

// Schema implements Node.
func (n *LimitNode) Schema(cat Catalog) (vector.Schema, error) { return n.Child.Schema(cat) }
