package sql

import (
	"context"
	"math"

	"vectorh/internal/plan"
	"vectorh/internal/vector"
)

// DMLKind enumerates the data-modification statement kinds.
type DMLKind uint8

// DML statement kinds.
const (
	DMLInsert DMLKind = iota
	DMLUpdate
	DMLDelete
)

func (k DMLKind) String() string {
	switch k {
	case DMLInsert:
		return "INSERT"
	case DMLUpdate:
		return "UPDATE"
	default:
		return "DELETE"
	}
}

// DML is a compiled data-modification statement, bound and type-checked
// against the catalog, ready to run on the engine's trickle-update entry
// points (InsertRows / UpdateWhere / DeleteWhere). Rows flow through the
// transaction manager into the Write-PDTs, so the existing PDT-merging
// scans see them with no query-side changes.
type DML struct {
	Kind  DMLKind
	Table string

	// Insert holds the value rows in table-schema order and physical
	// representation (dates as day numbers, decimals as scaled int64).
	Insert *vector.Batch

	// Where is the UPDATE/DELETE predicate (TRUE when the statement has no
	// WHERE clause).
	Where plan.Expr

	// SetCols/SetExprs are the UPDATE assignments; each expression's
	// result is converted to the column's physical storage type.
	SetCols  []string
	SetExprs []plan.Expr
}

// DMLEngine is the write surface a compiled DML statement executes
// against; *core.Engine (and therefore vectorh.DB) satisfies it.
type DMLEngine interface {
	plan.Catalog
	InsertRows(ctx context.Context, table string, b *vector.Batch) error
	UpdateWhere(ctx context.Context, table string, pred plan.Expr, setCols []string, setExprs []plan.Expr) (int64, error)
	DeleteWhere(ctx context.Context, table string, pred plan.Expr) (int64, error)
}

// Exec compiles and runs one DML statement, returning the number of
// affected rows. The context reaches the trickle-update scan loops: a
// cancelled statement aborts its transaction.
func Exec(ctx context.Context, src string, eng DMLEngine) (int64, error) {
	d, err := CompileDML(src, eng)
	if err != nil {
		return 0, err
	}
	switch d.Kind {
	case DMLInsert:
		n := int64(d.Insert.Len())
		if err := eng.InsertRows(ctx, d.Table, d.Insert); err != nil {
			return 0, err
		}
		return n, nil
	case DMLUpdate:
		return eng.UpdateWhere(ctx, d.Table, d.Where, d.SetCols, d.SetExprs)
	default:
		return eng.DeleteWhere(ctx, d.Table, d.Where)
	}
}

// CompileDML parses src and binds it as a data-modification statement.
func CompileDML(src string, cat plan.Catalog) (*DML, error) {
	stmt, err := ParseStmt(src)
	if err != nil {
		return nil, err
	}
	return LowerDML(stmt, cat)
}

// LowerDML binds a parsed DML statement against the catalog: names resolve
// to schema columns, values and SET expressions type-check against the
// column types (with source positions), and predicates lower to the same
// plan.Expr vocabulary queries use.
func LowerDML(stmt Stmt, cat plan.Catalog) (*DML, error) {
	switch s := stmt.(type) {
	case *InsertStmt:
		return lowerInsert(s, cat)
	case *UpdateStmt:
		return lowerUpdate(s, cat)
	case *DeleteStmt:
		return lowerDelete(s, cat)
	case *SelectStmt:
		return nil, errf(Pos{1, 1}, "SELECT is a query, not a DML statement")
	}
	return nil, errf(Pos{1, 1}, "unsupported statement")
}

func lowerInsert(s *InsertStmt, cat plan.Catalog) (*DML, error) {
	schema, err := cat.TableSchema(s.Table)
	if err != nil {
		return nil, errf(s.TablePos, "unknown table %q", s.Table)
	}
	// Resolve the column list to schema positions; without NULL/default
	// support every column must be present exactly once.
	slotOf := make([]int, len(schema)) // schema index -> value slot
	if len(s.Cols) == 0 {
		for i := range schema {
			slotOf[i] = i
		}
	} else {
		for i := range slotOf {
			slotOf[i] = -1
		}
		for slot, c := range s.Cols {
			ci := schema.Index(c.Name)
			if ci < 0 {
				return nil, errf(c.Pos, "table %q has no column %q", s.Table, c.Name)
			}
			if slotOf[ci] >= 0 {
				return nil, errf(c.Pos, "duplicate column %q in INSERT list", c.Name)
			}
			slotOf[ci] = slot
		}
		for ci, slot := range slotOf {
			if slot < 0 {
				return nil, errf(s.TablePos,
					"INSERT into %q must list every column (missing %q; NULL/defaults are unsupported)",
					s.Table, schema[ci].Name)
			}
		}
	}
	width := len(schema)
	b := vector.NewBatchForSchema(schema, len(s.Rows))
	for ri, row := range s.Rows {
		if len(row) != width {
			return nil, errf(row[0].pos(), "VALUES row %d has %d values, want %d", ri+1, len(row), width)
		}
		vals := make([]any, width)
		for ci, f := range schema {
			v, err := insertValue(row[slotOf[ci]], f)
			if err != nil {
				return nil, err
			}
			vals[ci] = v
		}
		b.AppendRow(vals...)
	}
	return &DML{Kind: DMLInsert, Table: s.Table, Insert: b}, nil
}

// insertValue converts one literal to the physical representation of the
// target column, rejecting mismatches with the literal's source position.
func insertValue(e Expr, f vector.Field) (any, error) {
	fail := func() (any, error) {
		return nil, errf(e.pos(), "column %q (%s) cannot take value %s", f.Name, f.Type, e)
	}
	if f.Type == vector.TDate {
		switch x := e.(type) {
		case *DateLit:
			return vector.AddMonths(vector.MustDate(x.V), x.Months), nil
		case *StrLit: // bare 'YYYY-MM-DD' is accepted for date columns
			d, err := vector.ParseDate(x.V)
			if err != nil {
				return nil, errf(x.P, "bad date literal %q for column %q", x.V, f.Name)
			}
			return d, nil
		}
		return fail()
	}
	if f.Type.Logical == vector.Decimal {
		switch x := e.(type) {
		case *IntLit:
			if x.V > math.MaxInt64/100 || x.V < math.MinInt64/100 {
				return nil, errf(x.P, "value %d overflows decimal column %q", x.V, f.Name)
			}
			return x.V * 100, nil
		case *FloatLit:
			if math.Abs(x.V) > math.MaxInt64/100 {
				return nil, errf(x.P, "value %g overflows decimal column %q", x.V, f.Name)
			}
			return int64(math.Round(x.V * 100)), nil
		}
		return fail()
	}
	switch f.Type.Kind {
	case vector.Int32:
		if x, ok := e.(*IntLit); ok {
			if x.V < math.MinInt32 || x.V > math.MaxInt32 {
				return nil, errf(x.P, "value %d overflows int32 column %q", x.V, f.Name)
			}
			return int32(x.V), nil
		}
	case vector.Int64:
		if x, ok := e.(*IntLit); ok {
			return x.V, nil
		}
	case vector.Float64:
		switch x := e.(type) {
		case *IntLit:
			return float64(x.V), nil
		case *FloatLit:
			return x.V, nil
		}
	case vector.String:
		if x, ok := e.(*StrLit); ok {
			return x.V, nil
		}
	}
	return fail()
}

func lowerUpdate(s *UpdateStmt, cat plan.Catalog) (*DML, error) {
	b, schema, err := dmlBlock(s.Table, s.TablePos, cat)
	if err != nil {
		return nil, err
	}
	d := &DML{Kind: DMLUpdate, Table: s.Table}
	seen := make(map[string]bool)
	for _, it := range s.Sets {
		ci := schema.Index(it.Col)
		if ci < 0 {
			return nil, errf(it.ColPos, "table %q has no column %q", s.Table, it.Col)
		}
		if seen[it.Col] {
			return nil, errf(it.ColPos, "column %q assigned twice", it.Col)
		}
		seen[it.Col] = true
		if err := b.bindDML(it.Expr); err != nil {
			return nil, err
		}
		le, err := lowerExpr(schema, it.Expr, false)
		if err != nil {
			return nil, err
		}
		ce, err := convertSet(schema, schema[ci], it.Expr, le)
		if err != nil {
			return nil, err
		}
		d.SetCols = append(d.SetCols, it.Col)
		d.SetExprs = append(d.SetExprs, ce)
	}
	if d.Where, err = b.lowerWhere(schema, s.Where); err != nil {
		return nil, err
	}
	return d, nil
}

func lowerDelete(s *DeleteStmt, cat plan.Catalog) (*DML, error) {
	b, schema, err := dmlBlock(s.Table, s.TablePos, cat)
	if err != nil {
		return nil, err
	}
	d := &DML{Kind: DMLDelete, Table: s.Table}
	if d.Where, err = b.lowerWhere(schema, s.Where); err != nil {
		return nil, err
	}
	return d, nil
}

// dmlBlock is the binding scope of an UPDATE/DELETE: a block whose one source
// is the target table, so DML names resolve exactly as a SELECT's do.
func dmlBlock(table string, pos Pos, cat plan.Catalog) (*block, vector.Schema, error) {
	b, err := newBlock(&SelectStmt{From: []FromItem{{Table: table, Alias: table, Pos: pos}}}, cat, nil)
	if err != nil {
		return nil, nil, err
	}
	return b, b.srcs[0].schema, nil
}

// bindDML resolves the names of a DML scalar expression. Subqueries and
// aggregates have no meaning over the one row such an expression sees and are
// rejected up front, with DML-specific messages.
func (b *block) bindDML(e Expr) error {
	if sub := firstSubquery(e); sub != nil {
		return errf(sub.pos(), "subqueries are not supported in UPDATE/DELETE")
	}
	if aggs := collectAggs(e); len(aggs) > 0 {
		return errf(aggs[0].P, "aggregate %s() is not allowed in INSERT/UPDATE/DELETE", aggs[0].Name)
	}
	return b.bindUse(e, false)
}

// lowerWhere lowers an optional predicate; absent means TRUE (all rows).
func (b *block) lowerWhere(schema vector.Schema, where Expr) (plan.Expr, error) {
	if where == nil {
		return plan.Bool(true), nil
	}
	if err := b.bindDML(where); err != nil {
		return plan.Expr{}, err
	}
	return lowerExpr(schema, where, false)
}

// convertSet wraps a lowered SET expression so its result lands in the
// target column's physical storage representation, rejecting type
// mismatches at bind time with the expression's source position.
func convertSet(schema vector.Schema, f vector.Field, ast Expr, le plan.Expr) (plan.Expr, error) {
	et, err := le.Type(schema)
	if err != nil {
		return plan.Expr{}, errf(ast.pos(), "cannot type SET expression for %q: %v", f.Name, err)
	}
	fail := func() (plan.Expr, error) {
		return plan.Expr{}, errf(ast.pos(), "cannot assign %s to column %q (%s)", et, f.Name, f.Type)
	}
	isDate := et == vector.TDate
	switch {
	case f.Type == vector.TDate:
		if !isDate {
			return fail()
		}
		return le, nil
	case f.Type.Logical == vector.Decimal:
		// Decimal targets take any non-date numeric; computed values (which
		// lower as floats via Dec) round back to two digits.
		if isDate || (et.Kind != vector.Float64 && et.Kind != vector.Int64 && et.Kind != vector.Int32) {
			return fail()
		}
		return plan.ToDecimal(le), nil
	case f.Type.Kind == vector.String:
		if et.Kind != vector.String {
			return fail()
		}
		return le, nil
	case f.Type.Kind == vector.Float64:
		switch {
		case et.Kind == vector.Float64:
			return le, nil
		case !isDate && (et.Kind == vector.Int32 || et.Kind == vector.Int64):
			return plan.Scaled(le, 1), nil
		}
		return fail()
	case f.Type.Kind == vector.Int32:
		switch {
		case et == vector.TInt32:
			return le, nil
		case et == vector.TInt64:
			return plan.CastInt32(le), nil
		}
		return fail()
	case f.Type.Kind == vector.Int64:
		switch {
		case et == vector.TInt64:
			return le, nil
		case et == vector.TInt32:
			return plan.CastInt64(le), nil
		}
		return fail()
	}
	return fail()
}
