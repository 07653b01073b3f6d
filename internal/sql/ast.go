package sql

// The AST. The operand structure of the expression nodes is stated once, in
// walk and rewrite below; every analysis and transformation of the planner is
// a visitor over those two. A new node kind is: its struct, String, walk,
// rewrite, lowerExpr — TestWalkRewriteCoverEveryNode fails until walk and
// rewrite know it.

import (
	"fmt"
	"strings"
)

// Stmt is any parsed statement: SELECT or one of the DML forms.
type Stmt interface {
	fmt.Stringer
	stmtNode()
}

func (*SelectStmt) stmtNode() {}
func (*InsertStmt) stmtNode() {}
func (*UpdateStmt) stmtNode() {}
func (*DeleteStmt) stmtNode() {}

// InsertStmt is INSERT INTO table [(cols)] VALUES (…), (…).
type InsertStmt struct {
	Table    string
	TablePos Pos
	Cols     []Ident  // optional explicit column list
	Rows     [][]Expr // literal value tuples
}

// Ident is a positioned identifier (column names in INSERT lists).
type Ident struct {
	Name string
	Pos  Pos
}

// UpdateStmt is UPDATE table SET col = expr, … [WHERE pred].
type UpdateStmt struct {
	Table    string
	TablePos Pos
	Sets     []SetItem
	Where    Expr // nil when absent
}

// SetItem is one SET assignment.
type SetItem struct {
	Col    string
	ColPos Pos
	Expr   Expr
}

// DeleteStmt is DELETE FROM table [WHERE pred].
type DeleteStmt struct {
	Table    string
	TablePos Pos
	Where    Expr // nil when absent
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Items   []SelectItem
	Star    bool // SELECT *
	From    []FromItem
	Where   Expr // nil when absent
	GroupBy []GroupItem
	Having  Expr // nil when absent
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
}

// SelectItem is one projected expression, optionally aliased.
type SelectItem struct {
	Expr  Expr
	Alias string // "" when unaliased
}

// FromItem is one FROM source: a base table or a derived table
// (Sub != nil); items after the first carry the join condition that
// connects them to the sources to their left.
type FromItem struct {
	Table string
	Alias string      // defaults to Table; mandatory for derived tables
	Sub   *SelectStmt // non-nil for FROM (SELECT ...) alias
	On    Expr        // nil for the first item
	Left  bool        // LEFT [OUTER] JOIN
	Pos   Pos
}

// GroupItem is one GROUP BY term: a source column or a select-list alias.
type GroupItem struct {
	Name string
	Pos  Pos
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a parsed scalar expression.
type Expr interface {
	fmt.Stringer
	pos() Pos
}

// walk visits e and its operands depth-first in source order. pre returning
// false prunes the node's operands. Subquery statements (ExistsExpr.Sub,
// SubqueryExpr.Sub, InSubquery.Sub) are opaque: their expressions belong to
// their own blocks. A nil e (count(*)'s argument) is skipped.
func walk(e Expr, pre func(Expr) bool) {
	if e == nil || !pre(e) {
		return
	}
	switch x := e.(type) {
	case *BinExpr:
		walk(x.L, pre)
		walk(x.R, pre)
	case *NotExpr:
		walk(x.E, pre)
	case *FuncCall:
		walk(x.Arg, pre)
	case *LikeExpr:
		walk(x.E, pre)
	case *InExpr:
		walk(x.E, pre)
	case *InSubquery:
		walk(x.E, pre)
	case *SubstrExpr:
		walk(x.E, pre)
	case *BetweenExpr:
		walk(x.E, pre)
		walk(x.Lo, pre)
		walk(x.Hi, pre)
	case *CaseExpr:
		walk(x.When, pre)
		walk(x.Then, pre)
		walk(x.Else, pre)
	}
}

// rewrite maps e top-down: where f returns true its result replaces the node
// (whose operands are then not visited); otherwise the node is rebuilt as a
// copy — every scalar field kept — over its rewritten operands, and a leaf is
// returned as it is. Subquery statements are opaque, as in walk.
func rewrite(e Expr, f func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := f(e); ok {
		return r
	}
	switch x := e.(type) {
	case *BinExpr:
		c := *x
		c.L, c.R = rewrite(x.L, f), rewrite(x.R, f)
		return &c
	case *NotExpr:
		c := *x
		c.E = rewrite(x.E, f)
		return &c
	case *FuncCall:
		c := *x
		c.Arg = rewrite(x.Arg, f)
		return &c
	case *LikeExpr:
		c := *x
		c.E = rewrite(x.E, f)
		return &c
	case *InExpr:
		c := *x
		c.E = rewrite(x.E, f)
		return &c
	case *InSubquery:
		c := *x
		c.E = rewrite(x.E, f)
		return &c
	case *SubstrExpr:
		c := *x
		c.E = rewrite(x.E, f)
		return &c
	case *BetweenExpr:
		c := *x
		c.E, c.Lo, c.Hi = rewrite(x.E, f), rewrite(x.Lo, f), rewrite(x.Hi, f)
		return &c
	case *CaseExpr:
		c := *x
		c.When, c.Then, c.Else = rewrite(x.When, f), rewrite(x.Then, f), rewrite(x.Else, f)
		return &c
	}
	return e
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table string // "" when unqualified
	Name  string
	P     Pos
}

func (e *ColRef) pos() Pos { return e.P }
func (e *ColRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// IntLit is an integer literal.
type IntLit struct {
	V int64
	P Pos
}

func (e *IntLit) pos() Pos       { return e.P }
func (e *IntLit) String() string { return fmt.Sprintf("%d", e.V) }

// FloatLit is a floating-point literal.
type FloatLit struct {
	V float64
	P Pos
}

func (e *FloatLit) pos() Pos       { return e.P }
func (e *FloatLit) String() string { return fmt.Sprintf("%g", e.V) }

// StrLit is a string literal.
type StrLit struct {
	V string
	P Pos
}

func (e *StrLit) pos() Pos       { return e.P }
func (e *StrLit) String() string { return "'" + strings.ReplaceAll(e.V, "'", "''") + "'" }

// DateLit is DATE 'YYYY-MM-DD', optionally shifted by whole months
// (+/- INTERVAL 'n' MONTH, folded at parse time).
type DateLit struct {
	V      string
	Months int
	P      Pos
}

func (e *DateLit) pos() Pos { return e.P }
func (e *DateLit) String() string {
	s := "date '" + e.V + "'"
	switch {
	case e.Months > 0:
		s += fmt.Sprintf(" + interval '%d' month", e.Months)
	case e.Months < 0:
		s += fmt.Sprintf(" - interval '%d' month", -e.Months)
	}
	return s
}

// ParamExpr is a positional statement parameter ('?'). Parameters exist only
// in prepared-statement templates: Prepare assigns 1-based indices in lexical
// order, and Bind splices literal values back into the token stream before
// compilation, so a ParamExpr that survives to lowering is an error
// ("unbound parameter").
type ParamExpr struct {
	Idx int // 1-based position
	P   Pos
}

func (e *ParamExpr) pos() Pos       { return e.P }
func (e *ParamExpr) String() string { return "?" }

// BinExpr is a binary operation: arithmetic, comparison, AND, OR.
type BinExpr struct {
	Op   string // + - * / = <> < <= > >= and or
	L, R Expr
	P    Pos
}

func (e *BinExpr) pos() Pos { return e.P }
func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// NotExpr is NOT e.
type NotExpr struct {
	E Expr
	P Pos
}

func (e *NotExpr) pos() Pos       { return e.P }
func (e *NotExpr) String() string { return fmt.Sprintf("(not %s)", e.E) }

// FuncCall is a function application: an aggregate (sum, min, max, avg,
// count) or the scalar year().
type FuncCall struct {
	Name     string
	Arg      Expr // nil for count(*)
	Star     bool // count(*)
	Distinct bool // count(distinct x)
	P        Pos
}

func (e *FuncCall) pos() Pos { return e.P }
func (e *FuncCall) String() string {
	switch {
	case e.Star:
		return e.Name + "(*)"
	case e.Distinct:
		return fmt.Sprintf("%s(distinct %s)", e.Name, e.Arg)
	default:
		return fmt.Sprintf("%s(%s)", e.Name, e.Arg)
	}
}

// LikeExpr is e [NOT] LIKE 'pattern'.
type LikeExpr struct {
	E       Expr
	Pattern string
	Not     bool
	P       Pos
}

func (e *LikeExpr) pos() Pos { return e.P }
func (e *LikeExpr) String() string {
	op := "like"
	if e.Not {
		op = "not like"
	}
	return fmt.Sprintf("(%s %s '%s')", e.E, op, e.Pattern)
}

// InExpr is e [NOT] IN (list) over a homogeneous literal list.
type InExpr struct {
	E    Expr
	Strs []string // one of Strs/Ints is set
	Ints []int64
	Not  bool
	P    Pos
}

func (e *InExpr) pos() Pos { return e.P }
func (e *InExpr) String() string {
	var parts []string
	for _, s := range e.Strs {
		parts = append(parts, "'"+s+"'")
	}
	for _, v := range e.Ints {
		parts = append(parts, fmt.Sprintf("%d", v))
	}
	op := "in"
	if e.Not {
		op = "not in"
	}
	return fmt.Sprintf("(%s %s (%s))", e.E, op, strings.Join(parts, ", "))
}

// ExistsExpr is [NOT] EXISTS (SELECT ...).
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
	P   Pos
}

func (e *ExistsExpr) pos() Pos { return e.P }
func (e *ExistsExpr) String() string {
	op := "exists"
	if e.Not {
		op = "not exists"
	}
	return fmt.Sprintf("(%s (%s))", op, e.Sub)
}

// SubqueryExpr is a scalar subquery: (SELECT ...) used as a value.
type SubqueryExpr struct {
	Sub *SelectStmt
	P   Pos
}

func (e *SubqueryExpr) pos() Pos       { return e.P }
func (e *SubqueryExpr) String() string { return fmt.Sprintf("(%s)", e.Sub) }

// InSubquery is e [NOT] IN (SELECT ...).
type InSubquery struct {
	E   Expr
	Sub *SelectStmt
	Not bool
	P   Pos
}

func (e *InSubquery) pos() Pos { return e.P }
func (e *InSubquery) String() string {
	op := "in"
	if e.Not {
		op = "not in"
	}
	return fmt.Sprintf("(%s %s (%s))", e.E, op, e.Sub)
}

// SubstrExpr is SUBSTRING(e FROM start FOR length) with 1-based integer
// literal bounds.
type SubstrExpr struct {
	E             Expr
	Start, Length int64
	P             Pos
}

func (e *SubstrExpr) pos() Pos { return e.P }
func (e *SubstrExpr) String() string {
	return fmt.Sprintf("substring(%s from %d for %d)", e.E, e.Start, e.Length)
}

// BetweenExpr is e BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	P         Pos
}

func (e *BetweenExpr) pos() Pos { return e.P }
func (e *BetweenExpr) String() string {
	return fmt.Sprintf("(%s between %s and %s)", e.E, e.Lo, e.Hi)
}

// CaseExpr is CASE WHEN cond THEN a [ELSE b] END; a missing ELSE defaults
// to the integer 0.
type CaseExpr struct {
	When, Then, Else Expr
	P                Pos
}

func (e *CaseExpr) pos() Pos { return e.P }
func (e *CaseExpr) String() string {
	return fmt.Sprintf("case when %s then %s else %s end", e.When, e.Then, e.Else)
}

// String renders the statement in a canonical single-line form (used by the
// golden parser tests).
func (s *InsertStmt) String() string {
	var sb strings.Builder
	sb.WriteString("insert into " + s.Table)
	if len(s.Cols) > 0 {
		sb.WriteString(" (")
		for i, c := range s.Cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
		}
		sb.WriteString(")")
	}
	sb.WriteString(" values ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// String renders the statement in a canonical single-line form.
func (s *UpdateStmt) String() string {
	var sb strings.Builder
	sb.WriteString("update " + s.Table + " set ")
	for i, it := range s.Sets {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Col + " = " + it.Expr.String())
	}
	if s.Where != nil {
		sb.WriteString(" where " + s.Where.String())
	}
	return sb.String()
}

// String renders the statement in a canonical single-line form.
func (s *DeleteStmt) String() string {
	out := "delete from " + s.Table
	if s.Where != nil {
		out += " where " + s.Where.String()
	}
	return out
}

// String renders the statement in a canonical single-line form (used by the
// golden parser tests and the REPL's \parse command).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	if s.Star {
		sb.WriteString("*")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" as " + it.Alias)
		}
	}
	sb.WriteString(" from ")
	for i, f := range s.From {
		if i > 0 {
			if f.Left {
				sb.WriteString(" left join ")
			} else {
				sb.WriteString(" join ")
			}
		}
		if f.Sub != nil {
			sb.WriteString("(" + f.Sub.String() + ") " + f.Alias)
		} else {
			sb.WriteString(f.Table)
			if f.Alias != f.Table {
				sb.WriteString(" " + f.Alias)
			}
		}
		if f.On != nil {
			sb.WriteString(" on " + f.On.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" where " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.Name)
		}
	}
	if s.Having != nil {
		sb.WriteString(" having " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" desc")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " limit %d", s.Limit)
	}
	return sb.String()
}
