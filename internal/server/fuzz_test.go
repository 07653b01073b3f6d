package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"testing"

	"vectorh/internal/vector"
)

// fuzzSchema is the schema FuzzFrameDecode checks decoded rows frames
// against.
var fuzzSchema = vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "s", Type: vector.TString}}

// FuzzFrameDecode drives the wire-frame reader with arbitrary bytes: the
// length-prefixed framing is the first thing a malicious peer controls, so
// ReadFrame must never panic, never allocate past its limit, and must
// round-trip everything WriteFrame produces. Every payload it accepts also
// goes through the client's response decoder, which must fail with an error,
// never a panic, and allocate in proportion to the payload; and a rows frame
// must round-trip the batch it was built from.
func FuzzFrameDecode(f *testing.F) {
	add := func(payload []byte) {
		var b bytes.Buffer
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		b.Write(hdr[:])
		b.Write(payload)
		f.Add(b.Bytes(), 1<<16)
	}
	add([]byte(`{"id":1,"op":"query","sql":"SELECT 1"}`))
	add([]byte(`{}`))
	add(bytes.Repeat([]byte{0xff}, 512))
	f.Add([]byte{}, 64)                                // empty stream: clean EOF
	f.Add([]byte{0, 0, 0, 0}, 64)                      // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}, 64)     // 4 GiB claim, 1 byte body
	f.Add([]byte{0, 0, 0, 8, 'h', 'i'}, 64)            // truncated payload
	f.Add([]byte{0, 0, 0, 2, '{', '}', 0, 0, 0, 1}, 0) // second header truncated
	rows := vector.NewBatch(vector.FromInt64([]int64{1, -2}), vector.FromString([]string{"ab", ""}))
	good := rowsFrameOf(f, 3, rows)
	f.Add(good, 0)
	truncated := rowsFrameOf(f, 3, rows)[:len(good)-3] // a batch cut off in its string column
	binary.BigEndian.PutUint32(truncated, uint32(len(truncated)-frameHeaderLen))
	f.Add(truncated, 0)
	f.Add(rowsFrameOf(f, 3, vector.NewBatch(vector.FromFloat64([]float64{1, 2}), vector.FromString([]string{"x", "y"}))), 0) // kind contradicts fuzzSchema

	f.Fuzz(func(t *testing.T, data []byte, maxBytes int) {
		if maxBytes > 1<<20 {
			maxBytes = 1 << 20 // keep allocation claims bounded under fuzzing
		}
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r, maxBytes)
			if err != nil {
				if err == io.EOF && r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", r.Len())
				}
				break
			}
			limit := maxBytes
			if limit <= 0 {
				limit = DefaultMaxFrameBytes
			}
			if len(payload) == 0 || len(payload) > limit {
				t.Fatalf("ReadFrame returned %d bytes with limit %d", len(payload), limit)
			}
			// The session layer feeds every accepted frame to the JSON
			// decoder; whatever that does, it must not panic.
			var req Request
			_ = json.Unmarshal(payload, &req)
			decodeClientFrame(t, payload)
		}

		// Round-trip: a response we write must come back byte-identical.
		var buf bytes.Buffer
		resp := &Response{ID: 7, Type: RespRows, Rows: [][]any{{"x", float64(1)}}}
		if err := WriteFrame(&buf, resp); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame after WriteFrame: %v", err)
		}
		want, _ := json.Marshal(resp)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round-trip mismatch:\n got: %s\nwant: %s", got, want)
		}

		// A rows frame carrying the fuzz bytes must come back as the rows
		// it was built from.
		src := vector.NewBatch(vector.FromInt64([]int64{int64(len(data)), int64(maxBytes)}),
			vector.FromString([]string{string(data), ""}))
		got, err = ReadFrame(bytes.NewReader(rowsFrameOf(t, int64(maxBytes), src)), 0)
		if err != nil {
			t.Fatalf("ReadFrame of a rows frame: %v", err)
		}
		decoded, err := decodeResponse(got)
		if err != nil || decoded.decodeErr != nil || decoded.ID != int64(maxBytes) {
			t.Fatalf("rows frame round trip: id %d, %v / %v", decoded.ID, err, decoded.decodeErr)
		}
		boxed, err := boxRows(decoded.batches, fuzzSchema)
		if err != nil || !reflect.DeepEqual(boxed, vector.BoxRows(nil, src)) {
			t.Fatalf("rows frame round trip: %v, %v", boxed, err)
		}
	})
}

// decodeClientFrame feeds payload to the client's response decoder and,
// for a rows frame, checks the batches against fuzzSchema and boxes them.
// A rows frame may cost allocations in proportion to its bytes only, as
// mpi.DecodeBatch promises.
func decodeClientFrame(t *testing.T, payload []byte) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resp, err := decodeResponse(payload)
	runtime.ReadMemStats(&m1)
	if payload[0] == rowsFrameTag {
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(256*len(payload)+4096) {
			t.Fatalf("decoding a %d-byte rows frame allocated %d bytes", len(payload), alloc)
		}
	}
	if err != nil || resp.decodeErr != nil || resp.Type != RespRows {
		return
	}
	if rows, err := boxRows(resp.batches, fuzzSchema); err == nil && len(rows) != rowCount(resp.batches) {
		t.Fatalf("boxed %d rows out of %d", len(rows), rowCount(resp.batches))
	}
}

func rowCount(batches []*vector.Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	return n
}
