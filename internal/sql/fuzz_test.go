package sql

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The SQL front-end is the engine's only parser of untrusted text: every
// wire query, prepared template and cache key passes through lex/ParseStmt/
// NormalizeSQL/Bind. The fuzz targets below pin the properties the rest of
// the engine assumes: no panics, positioned errors, idempotent
// normalization, and bound output that re-enters the front-end cleanly.

// fuzzInputCap bounds fuzz inputs: large enough for real statements, small
// enough that mutation stays productive.
const fuzzInputCap = 1 << 14

// TestParseDepthLimit pins the recursion guard the fuzzers rely on: without
// it, kilobytes of nested parentheses walk the recursive-descent parser off
// the goroutine stack, which is a process-killing crash, not an error.
func TestParseDepthLimit(t *testing.T) {
	deep := "SELECT " + strings.Repeat("(", 4096) + "1" + strings.Repeat(")", 4096)
	_, err := ParseStmt(deep)
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("deep nesting: want positioned error, got %v", err)
	}
	if !strings.Contains(se.Msg, "nesting exceeds") {
		t.Fatalf("wrong error: %v", err)
	}
	// A plausible real query several levels deep must still parse.
	ok := "SELECT ((((a + 1)))) FROM (SELECT b AS a FROM t) s"
	if _, err := ParseStmt(ok); err != nil {
		t.Fatalf("moderate nesting rejected: %v", err)
	}
}

var lexerSeeds = []string{
	"SELECT 1",
	"select l_orderkey, sum(l_extendedprice * (1 - l_discount)) from lineitem group by l_orderkey",
	"SELECT * FROM t WHERE a LIKE '%x%' AND b BETWEEN 1 AND 10",
	"'unterminated",
	"-- comment\nSELECT 1",
	"SELECT DATE '1995-01-01' + INTERVAL '3' MONTH",
	"INSERT INTO t (a, b) VALUES (1, 'x''y'), (2, '')",
	"SELECT 1e99, .5, 0.0, 'Ω≠ascii'",
	"SELECT ((((1))))",
	";;;",
}

func FuzzLexer(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzInputCap {
			t.Skip()
		}
		toks, err := lex(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("lex error without a position: %v", err)
			}
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tEOF {
			t.Fatalf("lex(%q): token stream not EOF-terminated", src)
		}
		for _, tok := range toks {
			if tok.pos.Line < 1 || tok.pos.Col < 1 {
				t.Fatalf("lex(%q): token %q at invalid position %v", src, tok.text, tok.pos)
			}
		}
	})
}

func FuzzParser(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Add("SELECT a FROM (SELECT b AS a FROM t) s WHERE EXISTS (SELECT 1 FROM u WHERE u.k = s.a)")
	f.Add("UPDATE t SET a = CASE WHEN b > 0 THEN 1 ELSE 2 END WHERE c IN (SELECT d FROM u)")
	f.Add("DELETE FROM t WHERE " + strings.Repeat("(", 300) + "1" + strings.Repeat(")", 300) + " = 1")
	f.Add(allNodeKinds)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzInputCap {
			t.Skip()
		}
		stmt, err := ParseStmt(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("parse error without a position: %v", err)
			}
			return
		}
		if stmt == nil {
			t.Fatalf("ParseStmt(%q): nil statement without error", src)
		}
		// Every expression the parser can build is one walk terminates on
		// and rewrite reproduces.
		for _, e := range stmtExprs(stmt) {
			nodes := 0
			walk(e, func(Expr) bool { nodes++; return true })
			if nodes == 0 || nodes > len(src) {
				t.Fatalf("walk visited %d nodes of %s (source: %d bytes)", nodes, e, len(src))
			}
			if same := rewrite(e, func(Expr) (Expr, bool) { return nil, false }); same.String() != e.String() {
				t.Fatalf("rewrite(identity) of %s prints %s", e, same)
			}
		}
	})
}

// allNodeKinds is one statement using every expression node kind.
const allNodeKinds = `select t.a, -1, 2.5, 'x', date '1994-01-01' + interval '3' month, ?, a + b, not a = b,
	count(*), count(distinct a), year(d), s like 'x%', s not in ('a', 'b'), a in (1, 2),
	substring(s from 1 for 2), a between 1 and 2, case when a > 1 then 1 else 0 end
	from t where exists (select * from u where u.k = t.a) and a > (select max(k) from u)
	and a not in (select k from u)`

// stmtExprs returns every top-level expression of a statement, those of the
// statements nested in it (derived tables, subquery expressions) included.
func stmtExprs(stmt Stmt) []Expr {
	var out []Expr
	add := func(es ...Expr) {
		for _, e := range es {
			if e == nil {
				continue
			}
			out = append(out, e)
			walk(e, func(x Expr) bool {
				switch s := x.(type) {
				case *ExistsExpr:
					out = append(out, stmtExprs(s.Sub)...)
				case *SubqueryExpr:
					out = append(out, stmtExprs(s.Sub)...)
				case *InSubquery:
					out = append(out, stmtExprs(s.Sub)...)
				}
				return true
			})
		}
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		for _, it := range s.Items {
			add(it.Expr)
		}
		for _, f := range s.From {
			add(f.On)
			if f.Sub != nil {
				out = append(out, stmtExprs(f.Sub)...)
			}
		}
		add(s.Where, s.Having)
		for _, o := range s.OrderBy {
			add(o.Expr)
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			add(row...)
		}
	case *UpdateStmt:
		for _, it := range s.Sets {
			add(it.Expr)
		}
		add(s.Where)
	case *DeleteStmt:
		add(s.Where)
	}
	return out
}

// TestAllNodeKindsSeed keeps the FuzzParser seed honest: it parses, and its
// expressions reach every kind exprNodes lists.
func TestAllNodeKindsSeed(t *testing.T) {
	stmt, err := ParseStmt(allNodeKinds)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range stmtExprs(stmt) {
		walk(e, func(x Expr) bool { seen[reflect.TypeOf(x).String()] = true; return true })
	}
	for _, n := range exprNodes {
		if k := reflect.TypeOf(n).String(); !seen[k] {
			t.Errorf("the seed has no %s", k)
		}
	}
}

func FuzzNormalizeSQL(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Add("SELECT  a ,b  FROM t  -- trailing comment")
	f.Add("sElEcT 'a''b' || x FROM t;")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzInputCap {
			t.Skip()
		}
		norm, cacheable := NormalizeSQL(src)
		if !cacheable {
			return
		}
		// The key must be stable: formatting differences collapse, so the
		// normalized form must normalize to itself.
		again, ok := NormalizeSQL(norm)
		if !ok {
			t.Fatalf("normalized form no longer cacheable:\n src: %q\nnorm: %q", src, norm)
		}
		if again != norm {
			t.Fatalf("NormalizeSQL not idempotent:\n src: %q\n  1st: %q\n  2nd: %q", src, norm, again)
		}
	})
}

func FuzzPreparedBind(f *testing.F) {
	f.Add("SELECT a FROM t WHERE b = ? AND c < ?", "x'y", int64(7), 2.5)
	f.Add("INSERT INTO t (a, b) VALUES (?, ?)", "", int64(-1), 0.0)
	f.Add("UPDATE t SET a = ? WHERE b IN (?, ?)", "line\nbreak", int64(1<<40), -0.125)
	f.Add("DELETE FROM t WHERE k = ?", "'; DELETE FROM u; --", int64(0), 1e300)
	f.Fuzz(func(t *testing.T, src, sv string, iv int64, fv float64) {
		if len(src) > fuzzInputCap || len(sv) > fuzzInputCap {
			t.Skip()
		}
		p, err := Prepare(src)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("prepare error without a position: %v", err)
			}
			return
		}
		params := make([]any, p.NumParams())
		for i := range params {
			switch i % 3 {
			case 0:
				params[i] = sv
			case 1:
				params[i] = iv
			default:
				params[i] = fv
			}
		}
		bound, err := p.Bind(params)
		if err != nil {
			return // e.g. non-finite float: rejected, not spliced
		}
		// Bound text is what the executor lexes: it must lex cleanly and
		// contain no residual parameter markers (a marker surviving into a
		// value string would mean the splice is injectable).
		toks, err := lex(bound)
		if err != nil {
			t.Fatalf("bound SQL does not lex: %v\n src: %q\nbound: %q", err, src, bound)
		}
		for _, tok := range toks {
			if tok.kind == tSymbol && tok.text == "?" {
				t.Fatalf("residual '?' after Bind:\n src: %q\nbound: %q", src, bound)
			}
		}
	})
}
