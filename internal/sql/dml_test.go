package sql

import (
	"reflect"
	"strings"
	"testing"

	"vectorh/internal/vector"
)

// TestParseDMLGolden locks the parse of DML statements via the canonical
// AST rendering.
func TestParseDMLGolden(t *testing.T) {
	cases := []struct{ in, want string }{
		{
			"INSERT INTO t (id, a) VALUES (1, 2), (3, 4);",
			"insert into t (id, a) values (1, 2), (3, 4)",
		},
		{
			"insert into t values (1, 2, 3.5, 'x', date '1994-01-01', 7)",
			"insert into t values (1, 2, 3.5, 'x', date '1994-01-01', 7)",
		},
		{
			"UPDATE t SET a = a + 1, s = 'it''s' WHERE id BETWEEN 3 AND 9",
			"update t set a = (a + 1), s = 'it''s' where (id between 3 and 9)",
		},
		{
			"update t set b = 2.5",
			"update t set b = 2.5",
		},
		{
			"DELETE FROM t WHERE id IN (1, 2, 3)",
			"delete from t where (id in (1, 2, 3))",
		},
		{
			"delete from t",
			"delete from t",
		},
	}
	for _, c := range cases {
		stmt, err := ParseStmt(c.in)
		if err != nil {
			t.Errorf("ParseStmt(%q): %v", c.in, err)
			continue
		}
		if got := stmt.String(); got != c.want {
			t.Errorf("ParseStmt(%q)\n got  %s\n want %s", c.in, got, c.want)
		}
	}
}

// TestDMLParseErrors locks DML parser error messages and positions.
func TestDMLParseErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"insert t values (1)", `1:8: expected "into"`},
		{"insert into t (1) values (2)", `1:16: expected column name`},
		{"insert into t values 1", `1:22: expected "("`},
		{"update t a = 1", `1:10: expected "set"`},
		{"update t set = 1", `1:14: expected column name`},
		{"update t set a 1", `1:16: expected "="`},
		{"delete t where a = 1", `1:8: expected "from"`},
		{"drop table t", `1:1: expected SELECT, INSERT, UPDATE or DELETE, found "drop"`},
		{"insert into t values (1); garbage", `unexpected`},
	}
	for _, c := range cases {
		_, err := ParseStmt(c.in)
		if err == nil {
			t.Errorf("ParseStmt(%q): expected error %q, got none", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseStmt(%q)\n got  %v\n want substring %q", c.in, err, c.want)
		}
	}
}

// TestDMLBindErrors locks DML binder error messages and positions — bad
// column names and type mismatches are rejected at bind time with line:col,
// like SELECT.
func TestDMLBindErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		// INSERT shape and types.
		{"insert into nosuch values (1)", `1:13: unknown table "nosuch"`},
		{"insert into t (id, zzz) values (1, 2)", `1:20: table "t" has no column "zzz"`},
		{"insert into t (id, id) values (1, 2)", `1:20: duplicate column "id"`},
		{"insert into t (id) values (1)", `1:13: INSERT into "t" must list every column (missing "a"`},
		{"insert into t values (1, 2, 3.5, 'x', date '1994-01-01')",
			`1:23: VALUES row 1 has 5 values, want 6`},
		{"insert into t values (1, 'x', 3.5, 'x', date '1994-01-01', 7)",
			`1:26: column "a" (int64) cannot take value 'x'`},
		{"insert into t values (1, 2, 3.5, 4, date '1994-01-01', 7)",
			`1:34: column "s" (string) cannot take value 4`},
		{"insert into t values (1, 2, 3.5, 'x', 'not a date', 7)",
			`1:39: bad date literal "not a date" for column "d"`},
		{"insert into t values (1, 2, 3.5, 'x', date '1994-01-01', 'x')",
			`1:58: column "m" (int64:decimal) cannot take value 'x'`},
		{"insert into t values (1, 2, 3.5, 'x', date '1994-01-01', 184467440737095517)",
			`1:58: value 184467440737095517 overflows decimal column "m"`},
		{"insert into t values (1, 2, 3.5, 'x', date '1994-01-01', a)",
			`1:58: column "m" (int64:decimal) cannot take value a`},
		// UPDATE SET lists.
		{"update nosuch set a = 1", `1:8: unknown table "nosuch"`},
		{"update t set zzz = 1", `1:14: table "t" has no column "zzz"`},
		{"update t set a = 1, a = 2", `1:21: column "a" assigned twice`},
		{"update t set a = 'x'", `1:18: cannot assign string to column "a" (int64)`},
		{"update t set s = 1", `1:18: cannot assign int64 to column "s" (string)`},
		{"update t set d = 5", `1:18: cannot assign int64 to column "d" (int32:date)`},
		{"update t set m = 'x'", `1:18: cannot assign string to column "m" (int64:decimal)`},
		{"update t set a = sum(a)", `1:18: aggregate sum() is not allowed in INSERT/UPDATE/DELETE`},
		{"update t set a = zzz", `1:18: unknown column "zzz"`},
		{"update t set a = 1 where zzz = 1", `1:26: unknown column "zzz"`},
		// DELETE predicates.
		{"delete from nosuch", `1:13: unknown table "nosuch"`},
		{"delete from t where zzz = 1", `1:21: unknown column "zzz"`},
		{"delete from t where count(*) > 1", `1:21: aggregate count() is not allowed in INSERT/UPDATE/DELETE`},
		// DML supports no subqueries, and says so at the subquery.
		{"delete from t where id in (select id from u)", `1:24: subqueries are not supported in UPDATE/DELETE`},
		{"delete from t where exists (select * from u where u.id = t.id)",
			`1:21: subqueries are not supported in UPDATE/DELETE`},
		{"update t set a = (select max(id) from u)", `1:18: subqueries are not supported in UPDATE/DELETE`},
		// SELECT through the DML entry point.
		{"select a from t", `SELECT is a query`},
	}
	cat := testCat()
	for _, c := range cases {
		_, err := CompileDML(c.in, cat)
		if err == nil {
			t.Errorf("CompileDML(%q): expected error %q, got none", c.in, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("CompileDML(%q)\n got  %v\n want substring %q", c.in, err, c.want)
		}
	}
}

// TestLowerInsertValues checks literal-to-physical conversion: dates become
// day numbers, decimals scale to int64, int32 columns narrow with range
// checks.
func TestLowerInsertValues(t *testing.T) {
	cat := testCat()
	d, err := CompileDML(
		"insert into t values (1, -2, 3.5, 'x', date '1994-01-01' + interval '1' month, 17.5), "+
			"(2, 7, 4, 'y', '1994-03-01', 5)", cat)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != DMLInsert || d.Table != "t" || d.Insert.Len() != 2 {
		t.Fatalf("unexpected DML: %+v", d)
	}
	want0 := []any{int64(1), int64(-2), 3.5, "x", vector.MustDate("1994-02-01"), int64(1750)}
	if got := d.Insert.Row(0); !reflect.DeepEqual(got, want0) {
		t.Errorf("row 0: got %v want %v", got, want0)
	}
	want1 := []any{int64(2), int64(7), 4.0, "y", vector.MustDate("1994-03-01"), int64(500)}
	if got := d.Insert.Row(1); !reflect.DeepEqual(got, want1) {
		t.Errorf("row 1: got %v want %v", got, want1)
	}

	// Reordered explicit column list lands values in schema order.
	d, err = CompileDML("insert into t (m, s, d, b, a, id) values (1, 'z', '1994-01-01', 0.5, 4, 9)", cat)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(9), int64(4), 0.5, "z", vector.MustDate("1994-01-01"), int64(100)}
	if got := d.Insert.Row(0); !reflect.DeepEqual(got, want) {
		t.Errorf("reordered row: got %v want %v", got, want)
	}
}

// TestSplitStatements checks script splitting around strings and comments.
func TestSplitStatements(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"select 1 from t", []string{"select 1 from t"}},
		{"insert into t values (1); delete from t", []string{"insert into t values (1)", " delete from t"}},
		{"select ';' from t; select 2 from t;", []string{"select ';' from t", " select 2 from t"}},
		{"select 'it''s; fine' from t", []string{"select 'it''s; fine' from t"}},
		{"-- a; comment\nselect 1 from t; ; ;", []string{"-- a; comment\nselect 1 from t"}},
		{"select 1 from t; -- done", []string{"select 1 from t"}},
		{"delete from t; -- first\n-- second", []string{"delete from t"}},
		{"  ;  ", nil},
	}
	for _, c := range cases {
		got := SplitStatements(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitStatements(%q)\n got  %q\n want %q", c.in, got, c.want)
		}
	}
}
