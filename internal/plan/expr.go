// Package plan defines the logical query plans the engine's clients build
// (TPC-H queries, examples) and the name-based expression language they use.
// The Parallel Rewriter turns these into distributed physical plans.
package plan

import (
	"fmt"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// Expr is a name-based expression that binds to column positions against a
// concrete schema at rewrite time.
type Expr struct {
	// Name is set for bare column references (used for key matching).
	Name string
	typ  func(s vector.Schema) (vector.Type, error)
	bind func(s vector.Schema) (expr.Expr, error)
}

// Bind resolves the expression against a schema.
func (e Expr) Bind(s vector.Schema) (expr.Expr, error) { return e.bind(s) }

// Type infers the expression's result type against a schema.
func (e Expr) Type(s vector.Schema) (vector.Type, error) { return e.typ(s) }

// Col references a column by name.
func Col(name string) Expr {
	return Expr{
		Name: name,
		typ: func(s vector.Schema) (vector.Type, error) {
			f, err := s.Field(name)
			if err != nil {
				return vector.Type{}, err
			}
			return f.Type, nil
		},
		bind: func(s vector.Schema) (expr.Expr, error) {
			i := s.Index(name)
			if i < 0 {
				return nil, fmt.Errorf("plan: unknown column %q", name)
			}
			return expr.Col(i, s[i].Type.Kind), nil
		},
	}
}

// Dec references a decimal (scaled int64) column and converts it to float64.
func Dec(name string) Expr { return Scaled(Col(name), 0.01) }

func lit(t vector.Type, e expr.Expr) Expr {
	return Expr{
		typ:  func(vector.Schema) (vector.Type, error) { return t, nil },
		bind: func(vector.Schema) (expr.Expr, error) { return e, nil },
	}
}

// Int is an int64 literal.
func Int(v int64) Expr { return lit(vector.TInt64, expr.ConstInt64(v)) }

// Float is a float64 literal.
func Float(v float64) Expr { return lit(vector.TFloat64, expr.ConstFloat(v)) }

// Str is a string literal.
func Str(v string) Expr { return lit(vector.TString, expr.ConstStr(v)) }

// Date is a date literal ("YYYY-MM-DD").
func Date(s string) Expr { return lit(vector.TDate, expr.ConstInt32(vector.MustDate(s))) }

// DateOffset is a date literal shifted by months (interval arithmetic is
// folded at plan-build time).
func DateOffset(s string, months int) Expr {
	return lit(vector.TDate, expr.ConstInt32(vector.AddMonths(vector.MustDate(s), months)))
}

func binary(l, r Expr, t func(lt, rt vector.Type) vector.Type,
	mk func(le, re expr.Expr) expr.Expr) Expr {
	return Expr{
		typ: func(s vector.Schema) (vector.Type, error) {
			lt, err := l.typ(s)
			if err != nil {
				return vector.Type{}, err
			}
			rt, err := r.typ(s)
			if err != nil {
				return vector.Type{}, err
			}
			return t(lt, rt), nil
		},
		bind: func(s vector.Schema) (expr.Expr, error) {
			le, err := l.bind(s)
			if err != nil {
				return nil, err
			}
			re, err := r.bind(s)
			if err != nil {
				return nil, err
			}
			return mk(le, re), nil
		},
	}
}

func numType(lt, rt vector.Type) vector.Type {
	if lt.Kind == vector.Float64 || rt.Kind == vector.Float64 {
		return vector.TFloat64
	}
	return vector.TInt64
}

func boolType(vector.Type, vector.Type) vector.Type { return vector.TBool }

// Add returns l + r.
func Add(l, r Expr) Expr { return binary(l, r, numType, expr.Add) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return binary(l, r, numType, expr.Sub) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return binary(l, r, numType, expr.Mul) }

// Div returns l / r (always float64).
func Div(l, r Expr) Expr {
	return binary(l, r, func(vector.Type, vector.Type) vector.Type { return vector.TFloat64 }, expr.Div)
}

// LT/LE/GT/GE/EQ/NE are comparisons.
func LT(l, r Expr) Expr { return binary(l, r, boolType, expr.LT) }

// LE returns l <= r.
func LE(l, r Expr) Expr { return binary(l, r, boolType, expr.LE) }

// GT returns l > r.
func GT(l, r Expr) Expr { return binary(l, r, boolType, expr.GT) }

// GE returns l >= r.
func GE(l, r Expr) Expr { return binary(l, r, boolType, expr.GE) }

// EQ returns l = r.
func EQ(l, r Expr) Expr { return binary(l, r, boolType, expr.EQ) }

// NE returns l <> r.
func NE(l, r Expr) Expr { return binary(l, r, boolType, expr.NE) }

// And returns l AND r.
func And(l, r Expr) Expr { return binary(l, r, boolType, expr.And) }

// Or returns l OR r.
func Or(l, r Expr) Expr { return binary(l, r, boolType, expr.Or) }

func unary(c Expr, t func(vector.Type) vector.Type, mk func(expr.Expr) expr.Expr) Expr {
	return Expr{
		typ: func(s vector.Schema) (vector.Type, error) {
			ct, err := c.typ(s)
			if err != nil {
				return vector.Type{}, err
			}
			return t(ct), nil
		},
		bind: func(s vector.Schema) (expr.Expr, error) {
			ce, err := c.bind(s)
			if err != nil {
				return nil, err
			}
			return mk(ce), nil
		},
	}
}

// Not negates a boolean.
func Not(c Expr) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TBool }, expr.Not)
}

// Scaled converts a scaled integer to float.
func Scaled(c Expr, factor float64) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TFloat64 },
		func(e expr.Expr) expr.Expr { return expr.Scaled(e, factor) })
}

// Year extracts the year of a date.
func Year(c Expr) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TInt32 }, expr.Year)
}

// Bool is a boolean literal (e.g. the TRUE predicate of an unfiltered
// UPDATE/DELETE).
func Bool(v bool) Expr { return lit(vector.TBool, expr.ConstBool(v)) }

// CastInt32 narrows an integer expression to int32 storage, failing at
// evaluation on overflow.
func CastInt32(c Expr) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TInt32 }, expr.CastInt32)
}

// CastInt64 widens an integer expression to int64 storage.
func CastInt64(c Expr) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TInt64 }, expr.CastInt64)
}

// ToDecimal converts a numeric expression to decimal storage (scaled int64,
// two digits): the inverse of Dec.
func ToDecimal(c Expr) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TDecimal },
		func(e expr.Expr) expr.Expr { return expr.ToScaledInt64(e, 100) })
}

// Like is SQL LIKE with % wildcards.
func Like(c Expr, pattern string) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TBool },
		func(e expr.Expr) expr.Expr { return expr.Like(e, pattern) })
}

// NotLike is NOT LIKE.
func NotLike(c Expr, pattern string) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TBool },
		func(e expr.Expr) expr.Expr { return expr.NotLike(e, pattern) })
}

// InStr is membership in a string list.
func InStr(c Expr, vals ...string) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TBool },
		func(e expr.Expr) expr.Expr { return expr.InStr(e, vals...) })
}

// InInt is membership in an int list.
func InInt(c Expr, vals ...int64) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TBool },
		func(e expr.Expr) expr.Expr { return expr.InInt64(e, vals...) })
}

// Substr is SUBSTRING(c FROM start FOR length), 1-based.
func Substr(c Expr, start, length int) Expr {
	return unary(c, func(vector.Type) vector.Type { return vector.TString },
		func(e expr.Expr) expr.Expr { return expr.Substr(e, start, length) })
}

// Between is lo <= c <= hi.
func Between(c, lo, hi Expr) Expr { return And(GE(c, lo), LE(c, hi)) }

// Case is CASE WHEN cond THEN a ELSE b END.
func Case(cond, a, b Expr) Expr {
	return Expr{
		typ: func(s vector.Schema) (vector.Type, error) { return a.typ(s) },
		bind: func(s vector.Schema) (expr.Expr, error) {
			ce, err := cond.bind(s)
			if err != nil {
				return nil, err
			}
			ae, err := a.bind(s)
			if err != nil {
				return nil, err
			}
			be, err := b.bind(s)
			if err != nil {
				return nil, err
			}
			return expr.Case(ce, ae, be), nil
		},
	}
}
