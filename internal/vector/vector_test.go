package vector

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"vectorh/internal/compress"
)

func TestKindStringAndWidth(t *testing.T) {
	cases := []struct {
		k     Kind
		name  string
		width int
	}{
		{Bool, "bool", 1},
		{Int32, "int32", 4},
		{Int64, "int64", 8},
		{Float64, "float64", 8},
		{String, "string", 16},
		{Invalid, "invalid", 0},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, c.k.String(), c.name)
		}
		if c.k.Width() != c.width {
			t.Errorf("Kind(%d).Width() = %d, want %d", c.k, c.k.Width(), c.width)
		}
	}
}

func TestTypeString(t *testing.T) {
	if got := TDate.String(); got != "int32:date" {
		t.Errorf("TDate.String() = %q", got)
	}
	if got := TDecimal.String(); got != "int64:decimal" {
		t.Errorf("TDecimal.String() = %q", got)
	}
	if got := TInt64.String(); got != "int64" {
		t.Errorf("TInt64.String() = %q", got)
	}
}

func TestSchemaLookup(t *testing.T) {
	s := Schema{{"a", TInt32}, {"b", TString}, {"c", TDate}}
	if s.Index("b") != 1 {
		t.Fatalf("Index(b) = %d", s.Index("b"))
	}
	if s.Index("z") != -1 {
		t.Fatalf("Index(z) = %d", s.Index("z"))
	}
	f, err := s.Field("c")
	if err != nil || f.Type != TDate {
		t.Fatalf("Field(c) = %v, %v", f, err)
	}
	if _, err := s.Field("nope"); err == nil {
		t.Fatal("Field(nope) should fail")
	}
	clone := s.Clone()
	clone[0].Name = "x"
	if s[0].Name != "a" {
		t.Fatal("Clone aliases the original")
	}
	if !s.Equal(Schema{{"a", TInt32}, {"b", TString}, {"c", TDate}}) {
		t.Fatal("Equal false negative")
	}
	if s.Equal(clone) {
		t.Fatal("Equal false positive")
	}
}

func TestVecAppendAndAccess(t *testing.T) {
	v := New(Int64, 4)
	for i := int64(0); i < 10; i++ {
		v.AppendInt64(i * i)
	}
	if v.Len() != 10 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Int64s()[3] != 9 {
		t.Fatalf("v[3] = %d", v.Int64s()[3])
	}
	if v.Get(4).(int64) != 16 {
		t.Fatalf("Get(4) = %v", v.Get(4))
	}
	v.Reset()
	if v.Len() != 0 {
		t.Fatal("Reset did not empty vector")
	}
}

func TestVecKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	New(Int32, 1).AppendString("boom")
}

func TestVecGatherWithAndWithoutSel(t *testing.T) {
	v := FromInt32([]int32{10, 20, 30, 40, 50})
	dense := v.Gather(nil, 3)
	if got := dense.Int32s(); len(got) != 3 || got[2] != 30 {
		t.Fatalf("dense gather = %v", got)
	}
	picked := v.Gather([]int32{4, 0, 2}, 3)
	if got := picked.Int32s(); got[0] != 50 || got[1] != 10 || got[2] != 30 {
		t.Fatalf("sel gather = %v", got)
	}
}

func TestVecSliceSharesStorage(t *testing.T) {
	v := FromFloat64([]float64{1, 2, 3, 4})
	s := v.Slice(1, 3)
	if s.Len() != 2 || s.Float64s()[0] != 2 {
		t.Fatalf("slice = %v", s.Float64s())
	}
	s.Float64s()[0] = 99
	if v.Float64s()[1] != 99 {
		t.Fatal("Slice should alias the parent storage")
	}
}

func TestVecStringBytes(t *testing.T) {
	v := FromString([]string{"ab", "cdef"})
	if got := v.Bytes(); got != 6+2*4 { // bytes plus one arena offset per value
		t.Fatalf("Bytes = %d", got)
	}
}

func TestConst(t *testing.T) {
	v := Const(String, "x", 3)
	if v.Len() != 3 || v.Strings()[2] != "x" {
		t.Fatalf("Const = %v", v.Strings())
	}
	b := Const(Bool, true, 2)
	if !b.Bools()[1] {
		t.Fatal("Const bool broken")
	}
}

func TestBatchSelAndCompact(t *testing.T) {
	b := NewBatch(FromInt64([]int64{1, 2, 3, 4}), FromString([]string{"a", "b", "c", "d"}))
	if b.Len() != 4 || b.NumCols() != 2 {
		t.Fatalf("batch dims %d/%d", b.Len(), b.NumCols())
	}
	b.Sel = []int32{1, 3}
	if b.Len() != 2 {
		t.Fatalf("selected len = %d", b.Len())
	}
	row := b.Row(1)
	if row[0].(int64) != 4 || row[1].(string) != "d" {
		t.Fatalf("Row(1) = %v", row)
	}
	c := b.Compact()
	if c.Sel != nil || c.Len() != 2 || c.Col(0).Int64s()[0] != 2 {
		t.Fatalf("Compact = %v", c.Col(0).Int64s())
	}
	if c2 := c.Compact(); c2 != c {
		t.Fatal("Compact of dense batch should be identity")
	}
}

func TestBatchProjectSharesVectors(t *testing.T) {
	v0, v1 := FromInt32([]int32{1}), FromInt32([]int32{2})
	b := NewBatch(v0, v1)
	p := b.Project([]int{1})
	if p.NumCols() != 1 || p.Col(0) != v1 {
		t.Fatal("Project should share vectors")
	}
}

func TestBatchAppendRow(t *testing.T) {
	b := NewBatchForSchema(Schema{{"k", TInt64}, {"s", TString}}, 4)
	b.AppendRow(int64(7), "hi")
	if b.Len() != 1 || b.Row(0)[1] != "hi" {
		t.Fatalf("AppendRow result %v", b.Row(0))
	}
}

func TestDateRoundTripAgainstTimePackage(t *testing.T) {
	// Exhaustively compare against the standard library across the TPC-H
	// range plus leap-year edges.
	start := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3000; i += 7 {
		d := start.AddDate(0, 0, i)
		want := int32(d.Unix() / 86400)
		got := DateFromYMD(d.Year(), int(d.Month()), d.Day())
		if got != want {
			t.Fatalf("DateFromYMD(%v) = %d, want %d", d, got, want)
		}
		y, m, dd := YMDFromDate(got)
		if y != d.Year() || m != int(d.Month()) || dd != d.Day() {
			t.Fatalf("YMDFromDate(%d) = %d-%d-%d, want %v", got, y, m, dd, d)
		}
	}
}

func TestParseAndFormatDate(t *testing.T) {
	d, err := ParseDate("1995-03-05")
	if err != nil {
		t.Fatal(err)
	}
	if FormatDate(d) != "1995-03-05" {
		t.Fatalf("FormatDate = %q", FormatDate(d))
	}
	if YearOf(d) != 1995 {
		t.Fatalf("YearOf = %d", YearOf(d))
	}
	for _, bad := range []string{"1995/03/05", "19950305", "1995-13-05", "1995-00-10", "x995-03-05"} {
		if _, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) should fail", bad)
		}
	}
}

func TestFormatDecimal(t *testing.T) {
	for v, want := range map[int64]string{
		0: "0.00", 5: "0.05", -5: "-0.05", 12345: "123.45", -100: "-1.00",
		math.MinInt64: "-92233720368547758.08",
	} {
		if got := FormatDecimal(v); got != want {
			t.Errorf("FormatDecimal(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestAddMonthsClamping(t *testing.T) {
	jan31 := MustDate("1996-01-31")
	if got := FormatDate(AddMonths(jan31, 1)); got != "1996-02-29" {
		t.Fatalf("AddMonths leap clamp = %q", got)
	}
	if got := FormatDate(AddMonths(jan31, 13)); got != "1997-02-28" {
		t.Fatalf("AddMonths non-leap clamp = %q", got)
	}
	if got := FormatDate(AddMonths(jan31, -2)); got != "1995-11-30" {
		t.Fatalf("AddMonths negative = %q", got)
	}
	d := MustDate("1998-12-01")
	if got := FormatDate(AddMonths(d, 3)); got != "1999-03-01" {
		t.Fatalf("AddMonths = %q", got)
	}
}

// TestYearOfMatchesYMDFromDate compares YearOf with YMDFromDate's year for
// every day in [-800000, 800000] (about 220 BC to AD 4160: every leap and
// century boundary of the proleptic calendar in that span, the 400-year
// ones included) and at the ends of the int32 range.
func TestYearOfMatchesYMDFromDate(t *testing.T) {
	check := func(d int32) {
		if y, _, _ := YMDFromDate(d); YearOf(d) != int32(y) {
			t.Fatalf("YearOf(%d) = %d, YMDFromDate year %d", d, YearOf(d), y)
		}
	}
	for d := int32(-800000); d <= 800000; d++ {
		check(d)
	}
	for _, d := range []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32} {
		check(d)
	}
	for date, want := range map[string]int32{"1900-02-28": 1900, "1900-03-01": 1900, "2000-02-29": 2000,
		"1999-12-31": 1999, "2000-01-01": 2000, "1970-01-01": 1970, "1969-12-31": 1969} {
		if got := YearOf(MustDate(date)); got != want {
			t.Errorf("YearOf(%s) = %d, want %d", date, got, want)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(off int16) bool {
		days := int32(off) // ~±89 years around epoch
		y, m, d := YMDFromDate(days)
		return DateFromYMD(y, m, d) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGatherPreservesValuesProperty(t *testing.T) {
	f := func(vals []int64, picks []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		v := FromInt64(vals)
		sel := make([]int32, len(picks))
		for i, p := range picks {
			sel[i] = int32(int(p) % len(vals))
		}
		g := v.Gather(sel, len(sel))
		for i, s := range sel {
			if g.Int64s()[i] != vals[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBoxRowsMatchesRow: BoxRows boxes what Row returns, row for row,
// through selections and dictionary codes and across several batches, and
// a boxed row is capped so that appending to it leaves the next row alone.
func TestBoxRowsMatchesRow(t *testing.T) {
	dict := &compress.StrDict{Values: []string{"x", "yy"}}
	plain := NewBatch(FromInt64([]int64{1, 2, 3}), FromString([]string{"a", "", "c"}))
	coded := NewBatch(FromInt64([]int64{4, 5, 6}), FromDictCodes([]uint32{1, 0, 1}, dict))
	coded.Sel = []int32{2, 0}
	var want [][]any
	for _, b := range []*Batch{plain, coded} {
		for i := range b.Len() {
			want = append(want, b.Row(i))
		}
	}
	head := [][]any{{"kept"}}
	got := BoxRows(head, plain, coded)
	if !reflect.DeepEqual(got[1:], want) || got[0][0] != "kept" {
		t.Fatalf("BoxRows = %v, want %v after the kept row", got, want)
	}
	_ = append(got[1], "appended")
	if !reflect.DeepEqual(got[2], want[1]) {
		t.Fatalf("appending to row 0 changed row 1 to %v", got[2])
	}
}
