package experiments

import "testing"

// TestFig1BytesReadOrdering asserts Figure 1 as counts at SF 0.01. Bytes
// read: VectorH's grow with the selected share of the clustered table, the
// Parquet-like format's do not move (its statistics sit inside the chunks it
// must read to see them), and at every selectivity VectorH < ORC-like
// skipping on footer statistics < ORC-like reading every chunk <
// Parquet-like. Stored size of the seven Figure-1c columns: VectorH <
// ORC-like < Parquet-like.
func TestFig1BytesReadOrdering(t *testing.T) {
	res, err := Fig1(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d series, want 4", len(res))
	}
	for _, s := range res {
		t.Logf("%-22s read %v bytes; seven columns %d bytes", s.Format, s.BytesRead, s.ColumnBytes)
		if len(s.BytesRead) != len(Fig1Selectivities) {
			t.Fatalf("%s: %d counts for %d selectivities", s.Format, len(s.BytesRead), len(Fig1Selectivities))
		}
	}
	vh, orcSkip, orcAll, parquet := res[0], res[1], res[2], res[3]
	for i := range Fig1Selectivities {
		if i > 0 && vh.BytesRead[i] <= vh.BytesRead[i-1] {
			t.Errorf("vectorh bytes read do not rise with selectivity: %v", vh.BytesRead)
		}
		if parquet.BytesRead[i] != parquet.BytesRead[0] {
			t.Errorf("parquet-like bytes read vary with selectivity: %v", parquet.BytesRead)
		}
		if !(vh.BytesRead[i] < orcSkip.BytesRead[i] && orcSkip.BytesRead[i] < orcAll.BytesRead[i] &&
			orcAll.BytesRead[i] < parquet.BytesRead[i]) {
			t.Errorf("selectivity %.1f: want %s < %s < %s < %s, got %d, %d, %d, %d", Fig1Selectivities[i],
				vh.Format, orcSkip.Format, orcAll.Format, parquet.Format,
				vh.BytesRead[i], orcSkip.BytesRead[i], orcAll.BytesRead[i], parquet.BytesRead[i])
		}
	}
	if !(vh.ColumnBytes < orcAll.ColumnBytes && orcAll.ColumnBytes < parquet.ColumnBytes) {
		t.Errorf("column sizes: want vectorh < orc-like < parquet-like, got %d, %d, %d",
			vh.ColumnBytes, orcAll.ColumnBytes, parquet.ColumnBytes)
	}
}
