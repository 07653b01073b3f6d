package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// TestFrameGoldenEncode pins the wire format: 4-byte big-endian length +
// canonical JSON. A change here is a protocol break, not a refactor.
func TestFrameGoldenEncode(t *testing.T) {
	var buf bytes.Buffer
	req := Request{ID: 7, Op: OpQuery, SQL: "select 1"}
	if err := WriteFrame(&buf, &req); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"id":7,"op":"query","sql":"select 1"}`
	want := make([]byte, 4)
	binary.BigEndian.PutUint32(want, uint32(len(wantJSON)))
	want = append(want, wantJSON...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame bytes:\n got %s\nwant %s", hex.EncodeToString(buf.Bytes()), hex.EncodeToString(want))
	}

	payload, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := unmarshalStrictNumbers(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip: got %+v want %+v", got, req)
	}
}

// TestResponseRoundTrip exercises every response shape through one frame
// buffer in order, as the client's read loop meets them: JSON control
// frames around a binary rows frame.
func TestResponseRoundTrip(t *testing.T) {
	responses := []Response{
		{ID: 1, Type: RespSchema, Schema: []ColDesc{{Name: "k", Kind: "int64"}, {Name: "d", Kind: "int32", Logical: "date"}}},
		{ID: 1, Type: RespRows},
		{ID: 1, Type: RespDone, ElapsedUs: 1234},
		{ID: 2, Type: RespError, Err: &WireError{Line: 3, Col: 14, Msg: "unknown column"}},
		{ID: 3, Type: RespMetrics, Metrics: "# TYPE vectorh_sessions_active gauge\nvectorh_sessions_active 2\n"},
	}
	rows := vector.NewBatch(vector.FromInt64([]int64{1, 1 << 60}), vector.FromInt32([]int32{9131, 0}))
	var buf bytes.Buffer
	for i := range responses {
		if responses[i].Type == RespRows {
			buf.Write(rowsFrameOf(t, responses[i].ID, rows))
			continue
		}
		if err := WriteFrame(&buf, &responses[i]); err != nil {
			t.Fatal(err)
		}
	}
	var schema vector.Schema
	for i, want := range responses {
		payload, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodeResponse(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != want.ID || got.Type != want.Type {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		switch want.Type {
		case RespSchema:
			if schema, err = Schema(got.Schema); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		case RespError:
			if got.Err == nil || *got.Err != *want.Err {
				t.Fatalf("frame %d error: got %+v want %+v", i, got.Err, want.Err)
			}
		case RespMetrics:
			if got.Metrics != want.Metrics {
				t.Fatalf("frame %d metrics: got %q want %q", i, got.Metrics, want.Metrics)
			}
		case RespRows:
			// The int64 keeps its full precision and the date its kind.
			boxed, err := boxRows(got.batches, schema)
			if err != nil || !reflect.DeepEqual(boxed, [][]any{{int64(1), int32(9131)}, {int64(1 << 60), int32(0)}}) {
				t.Fatalf("frame %d: rows %v, %v", i, boxed, err)
			}
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, 1<<30)
	buf.Write(hdr)
	buf.WriteString("irrelevant")
	_, err := ReadFrame(&buf, 1024)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	huge := Response{Type: RespRows, Rows: [][]any{{strings.Repeat("x", DefaultMaxFrameBytes)}}}
	if err := WriteFrame(&buf, &huge); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v", err)
	}
	rows := mpi.AppendBatch(appendRowsHeader(nil, 1), vector.NewBatch(vector.FromString([]string{strings.Repeat("x", DefaultMaxFrameBytes)})))
	if err := sealFrame(rows); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("rows frame: err = %v", err)
	}
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	_, err := ReadFrame(&buf, 0)
	if err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 100 payload bytes; the peer vanishes after 10.
	var buf bytes.Buffer
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, 100)
	buf.Write(hdr)
	buf.WriteString("only ten b")
	_, err := ReadFrame(&buf, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}

	// A clean EOF at a frame boundary is io.EOF, so callers can tell a
	// graceful disconnect from a torn frame.
	_, err = ReadFrame(bytes.NewReader(nil), 0)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}

	// EOF mid-header is also a torn frame.
	_, err = ReadFrame(bytes.NewReader([]byte{0, 0}), 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestUnmarshalRejectsTrailingData(t *testing.T) {
	if err := unmarshalStrictNumbers([]byte(`{"id":1}{"id":2}`), &Request{}); err == nil {
		t.Fatal("trailing data accepted")
	}
}
