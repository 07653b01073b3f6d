package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vectorh"
	"vectorh/internal/compress"
	"vectorh/internal/core"
	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// rowsFrameOf encodes batches as one rows frame of request id, header
// included, the way runQuery sends them.
func rowsFrameOf(t testing.TB, id int64, batches ...*vector.Batch) []byte {
	t.Helper()
	frame := appendRowsHeader(nil, id)
	for _, b := range batches {
		frame = mpi.AppendBatch(frame, b)
	}
	if err := sealFrame(frame); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestRowsFrameRoundTrip round-trips every column kind and logical type,
// dictionary-coded strings, selection-bearing batches and several batches
// in one frame through the rows frame: the client must box exactly the rows
// vector.BoxRows boxes in process.
func TestRowsFrameRoundTrip(t *testing.T) {
	dict := &compress.StrDict{Values: []string{"AIR", "", "REG AIR", "TRUCK"}}
	field := func(name string, typ vector.Type) vector.Field { return vector.Field{Name: name, Type: typ} }
	every := vector.Schema{field("b", vector.TBool), field("i", vector.TInt32), field("l", vector.TInt64),
		field("f", vector.TFloat64), field("s", vector.TString), field("d", vector.TDate), field("m", vector.TDecimal)}
	everyBatch := func() *vector.Batch {
		return vector.NewBatch(
			vector.FromBool([]bool{true, false, true}),
			vector.FromInt32([]int32{math.MinInt32, 0, math.MaxInt32}),
			vector.FromInt64([]int64{math.MinInt64, -1, math.MaxInt64}),
			vector.FromFloat64([]float64{math.Inf(-1), 0.1, math.MaxFloat64}),
			vector.FromString([]string{"", "x", strings.Repeat("é", 200)}),
			vector.FromInt32([]int32{vector.MustDate("1992-01-01"), 0, vector.MustDate("1998-12-01")}),
			vector.FromInt64([]int64{-1, 12345, 1 << 60}))
	}
	selected := everyBatch()
	selected.Sel = []int32{2, 0}
	emptySel := everyBatch()
	emptySel.Sel = []int32{}
	coded := vector.NewBatch(vector.FromInt64([]int64{1, 2, 3, 4, 5}), vector.FromDictCodes([]uint32{3, 1, 0, 0, 2}, dict))
	codedSel := vector.NewBatch(vector.FromInt64([]int64{1, 2, 3, 4, 5}), vector.FromDictCodes([]uint32{3, 1, 0, 0, 2}, dict))
	codedSel.Sel = []int32{4, 1}
	keyed := vector.Schema{field("k", vector.TInt64), field("mode", vector.TString)}

	cases := []struct {
		name    string
		schema  vector.Schema
		batches []*vector.Batch
	}{
		{"every kind", every, []*vector.Batch{everyBatch()}},
		{"selection", every, []*vector.Batch{selected}},
		{"empty selection", every, []*vector.Batch{emptySel}},
		{"several batches", every, []*vector.Batch{everyBatch(), selected, everyBatch()}},
		{"dictionary codes", keyed, []*vector.Batch{coded}},
		{"dictionary codes under a selection", keyed, []*vector.Batch{codedSel, coded}},
		{"no batches", keyed, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := vector.BoxRows(nil, tc.batches...)
			frame := rowsFrameOf(t, 42, tc.batches...)
			payload, err := ReadFrame(bytes.NewReader(frame), 0)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := decodeResponse(payload)
			if err != nil || resp.decodeErr != nil {
				t.Fatalf("decode: %v / %v", err, resp.decodeErr)
			}
			if resp.ID != 42 || resp.Type != RespRows {
				t.Fatalf("decoded id %d type %q", resp.ID, resp.Type)
			}
			got, err := boxRows(resp.batches, tc.schema)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("rows differ:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestRowsFrameRejectsSchemaMismatch: a rows frame whose column count or
// kinds contradict the schema frame is an error, not rows of the wrong type.
func TestRowsFrameRejectsSchemaMismatch(t *testing.T) {
	b := vector.NewBatch(vector.FromInt64([]int64{7}), vector.FromString([]string{"x"}))
	resp, err := decodeResponse(rowsFrameOf(t, 1, b)[frameHeaderLen:])
	if err != nil || resp.decodeErr != nil {
		t.Fatalf("decode: %v / %v", err, resp.decodeErr)
	}
	for _, schema := range []vector.Schema{
		{{Name: "k", Type: vector.TInt64}},
		{{Name: "k", Type: vector.TInt32}, {Name: "s", Type: vector.TString}},
		{{Name: "k", Type: vector.TInt64}, {Name: "s", Type: vector.TDate}},
	} {
		if rows, err := boxRows(resp.batches, schema); err == nil {
			t.Errorf("schema %v accepted rows %v", schema, rows)
		}
	}
}

// TestWireRowsEqualInProcess runs statements over the wire and in process
// through Engine.Run: the rows must be equal value for value and type for
// type. The table is replicated, so a scan's batches reach the root without
// an exchange re-encoding them, and its string column is PDICT-compressed;
// the statements cover every column kind, both logical types, root batches
// with dictionary-coded strings (a scan under a projection) and with
// selections (HAVING), which the test checks it saw.
func TestWireRowsEqualInProcess(t *testing.T) {
	db, err := vectorh.Open(vectorh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	schema := vectorh.Schema{{Name: "k", Type: vectorh.TInt64}, {Name: "n", Type: vectorh.TInt32},
		{Name: "f", Type: vectorh.TFloat64}, {Name: "mode", Type: vectorh.TString},
		{Name: "d", Type: vectorh.TDate}, {Name: "price", Type: vectorh.TDecimal}}
	if err := db.CreateTable(vectorh.TableInfo{Name: "t", Schema: schema}); err != nil {
		t.Fatal(err)
	}
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP"}
	rng := rand.New(rand.NewSource(1))
	b := vector.NewBatchForSchema(schema, 5000)
	for i := range 5000 {
		b.AppendRow(int64(i)*7919-1<<40, int32(i%97-50), float64(i)/3, modes[rng.Intn(len(modes))],
			vector.MustDate("1995-01-01")+int32(i%1000), int64(i%5000)*101)
	}
	if err := db.Load("t", []*vector.Batch{b}); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, addr.String())

	queries := []string{
		`select k, n, f, mode, d, price from t`,
		`select mode, k from t where n * 2 > f - 40`,
		`select n, count(*) as c from t group by n having count(*) > 51`,
		`select k, n < 0 as neg, price * 0.5 as half, d from t where mode = 'RAIL'`,
	}
	kinds := map[vector.Kind]bool{}
	logical := map[vector.Logical]bool{}
	var sawDict, sawSel bool
	for _, q := range queries {
		node, schema, err := db.CompileSQL(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range schema {
			kinds[f.Type.Kind], logical[f.Type.Logical] = true, true
		}
		var want [][]any
		_, err = db.Run(context.Background(), node, core.QueryOptions{}, func(b *vector.Batch) error {
			sawSel = sawSel || b.Sel != nil
			for _, v := range b.Vecs {
				sawDict = sawDict || v.IsDict()
			}
			want = vector.BoxRows(want, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || len(res.Rows) != len(want) {
			t.Fatalf("%s: %d rows over the wire, %d in process", q, len(res.Rows), len(want))
		}
		// Row order across exchange streams is not fixed without ORDER BY.
		sortRows(want)
		sortRows(res.Rows)
		for i := range want {
			if !reflect.DeepEqual(res.Rows[i], want[i]) {
				t.Fatalf("%s: row %d is %#v over the wire, %#v in process", q, i, res.Rows[i], want[i])
			}
		}
	}
	for k := vector.Bool; k <= vector.String; k++ {
		if !kinds[k] {
			t.Errorf("no result column of kind %s", k)
		}
	}
	if !logical[vector.Date] || !logical[vector.Decimal] {
		t.Errorf("logical types covered: %v", logical)
	}
	if !sawDict || !sawSel {
		t.Errorf("root batches with dictionary codes: %v, with a selection: %v", sawDict, sawSel)
	}
}

func sortRows(rows [][]any) {
	slices.SortFunc(rows, func(a, b []any) int {
		return strings.Compare(fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b))
	})
}

// TestBadRowsFrameFailsQuery: a rows frame the client cannot decode fails
// its query with an error; it is not dropped, which would return a shorter
// result as a success. The session stays usable afterwards, until a frame
// arrives that names no request.
func TestBadRowsFrameFailsQuery(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	b := vector.NewBatch(vector.FromInt64([]int64{1, 2, 3}), vector.FromString([]string{"a", "b", "c"}))
	schema := []ColDesc{{Name: "k", Kind: "int64"}, {Name: "s", Kind: "string"}}
	// rowsFrame is a rows frame of b for request id, its last cut bytes
	// removed and its length header matching what is left.
	rowsFrame := func(id int64, cut int) []byte {
		frame := mpi.AppendBatch(appendRowsHeader(nil, id), b)
		frame = frame[:len(frame)-cut]
		_ = sealFrame(frame) // a few dozen bytes, far below the limit
		return frame
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		// Each query gets a schema frame, a good rows frame, a rows frame
		// cut off inside its string column, and done; pings get pongs.
		for {
			payload, err := ReadFrame(conn, 0)
			if err != nil {
				served <- nil
				return
			}
			var req Request
			if err := unmarshalStrictNumbers(payload, &req); err != nil {
				served <- err
				return
			}
			switch req.Op {
			case OpQuery:
				WriteFrame(conn, &Response{ID: req.ID, Type: RespSchema, Schema: schema})
				conn.Write(rowsFrame(req.ID, 0))
				conn.Write(rowsFrame(req.ID, 2)) // the frame is whole, its batch is not
				WriteFrame(conn, &Response{ID: req.ID, Type: RespDone})
			case OpPing:
				WriteFrame(conn, &Response{ID: req.ID, Type: RespPong})
			case OpExplain:
				conn.Write([]byte{0, 0, 0, 4, '{', 'b', 'a', 'd'})
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), "select k, s from t")
	if err == nil || !strings.Contains(err.Error(), "bad rows frame") {
		t.Fatalf("Query = %v rows, err %v; want a bad rows frame error", res, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session unusable after a bad rows frame: %v", err)
	}
	// A frame that names no request ends the session: every request fails.
	if _, err := c.Explain("select 1"); err == nil || !strings.Contains(err.Error(), "bad response frame") {
		t.Fatalf("Explain after an unparsable frame: %v", err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("Ping succeeded on a session that read an unparsable frame")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestAppendFrameReusesBuffer: a reader that appends every frame into one
// buffer allocates nothing once the buffer holds the largest frame.
func TestAppendFrameReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	for i := range 8 {
		if err := WriteFrame(&stream, &Response{ID: int64(i), Type: RespDone}); err != nil {
			t.Fatal(err)
		}
	}
	wire := stream.Bytes()
	buf := make([]byte, 0, 256)
	r := bytes.NewReader(wire)
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(wire)
		for {
			var err error
			if buf, err = AppendFrame(buf[:0], r, 0); err != nil {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reading 8 frames into a reused buffer allocated %v times", allocs)
	}
}
