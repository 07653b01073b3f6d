package experiments

import "testing"

// TestRefreshSQLValidates is the acceptance gate for SQL DML: after
// executing the TPC-H refresh streams RF1 and RF2 as SQL text against SF
// 0.01, every query with SQL text must return row-identical results to
// expected values recomputed over the post-refresh data — and the refresh
// volume must have pushed at least one partition through update
// propagation, so the tail-insert and rewrite paths are exercised too.
func TestRefreshSQLValidates(t *testing.T) {
	res, err := Refresh(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.RF1Orders == 0 || res.RF1Items == 0 {
		t.Fatalf("RF1 inserted nothing: %+v", res)
	}
	if res.RF2Orders == 0 || res.RF2Items == 0 {
		t.Fatalf("RF2 deleted nothing: %+v", res)
	}
	if res.PropagatedPartitions == 0 {
		t.Fatalf("no partition went through update propagation; flush threshold too high for the refresh volume")
	}
	for _, q := range res.Queries {
		if !q.Match {
			t.Errorf("Q%02d diverged from the recomputed expected result (%d rows)", q.Q, q.Rows)
		}
	}
	if len(res.Queries) < 8 {
		t.Fatalf("validated only %d queries", len(res.Queries))
	}
}
