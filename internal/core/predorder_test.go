package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vectorh/internal/core"
	"vectorh/internal/experiments"
	"vectorh/internal/obs"
	"vectorh/internal/rewriter"
	"vectorh/internal/sql"
	"vectorh/internal/tpch"
)

// TestScanPartsRunInCostOrder runs S4 as written and with its conjuncts
// commuted. The scan orders its predicate parts by cost, not by text: both
// forms run the code-space IN on l_shipmode before the LIKE on l_comment, the
// LIKE reads only the rows the IN kept, and the rows per part and the result
// are the same. Without code execution the IN is a string test, still cheaper
// than the LIKE.
func TestScanPartsRunInCostOrder(t *testing.T) {
	eng, err := experiments.NewEngine(3, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.LoadIntoEngine(eng, tpch.Generate(0.01, 9), 6); err != nil {
		t.Fatal(err)
	}
	const s4 = `select l_shipmode, count(*) as n, sum(l_extendedprice) as price from lineitem
		where %s group by l_shipmode order by l_shipmode`
	run := func(where string, off rewriter.Rules) ([][]any, []obs.PartRows) {
		t.Helper()
		q, err := sql.Compile(fmt.Sprintf(s4, where), eng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background(), q, core.QueryOptions{Profile: true, Disable: off}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var parts []obs.PartRows
		for _, op := range res.Operators {
			parts = append(parts, op.Parts...)
		}
		return res.Rows, parts
	}
	for _, off := range []rewriter.Rules{0, rewriter.CompressedExec} {
		rows, parts := run("l_comment like '%regular%' and l_shipmode in ('MAIL', 'SHIP', 'RAIL')", off)
		commuted, commutedParts := run("l_shipmode in ('MAIL', 'SHIP', 'RAIL') and l_comment like '%regular%'", off)
		if len(parts) != 2 || !strings.HasPrefix(parts[0].Pred, "in(") || !strings.HasPrefix(parts[1].Pred, "like(") {
			t.Fatalf("Disable=%04b: parts %+v, want the IN and then the LIKE", off, parts)
		}
		if parts[1].In != parts[0].Out || parts[0].Out >= parts[0].In || parts[0].In == 0 {
			t.Errorf("Disable=%04b: the LIKE read %d rows, the IN kept %d of %d", off, parts[1].In, parts[0].Out, parts[0].In)
		}
		var n int64
		for _, r := range rows {
			n += r[1].(int64)
		}
		if n != parts[1].Out {
			t.Errorf("Disable=%04b: the groups count %d rows, the LIKE kept %d", off, n, parts[1].Out)
		}
		if !reflect.DeepEqual(parts, commutedParts) {
			t.Errorf("Disable=%04b: parts as written %+v, commuted %+v", off, parts, commutedParts)
		}
		// Groups merge in exchange arrival order, so the float sums may differ
		// in their last bits between any two runs.
		same := len(rows) == len(commuted)
		for i := 0; same && i < len(rows); i++ {
			p, q := rows[i][2].(float64), commuted[i][2].(float64)
			same = reflect.DeepEqual(rows[i][:2], commuted[i][:2]) && math.Abs(p-q) <= 1e-9*math.Abs(p)
		}
		if !same {
			t.Errorf("Disable=%04b: rows as written %v, commuted %v", off, rows, commuted)
		}
	}
}
