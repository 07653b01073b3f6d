// Package server is the VectorH serving layer (vectorh-serve): a TCP
// front door that turns the in-process engine into a concurrent multi-user
// service — the deployment shape the paper positions VectorH in (an
// interactive, multi-user MPP SQL engine, §1) and the axis on which the
// SQL-on-Hadoop systems it compares against differentiate under concurrency.
//
// The wire protocol is deliberately small: length-prefixed frames. A
// request is one frame; a response is a sequence of frames sharing the
// request id — for a query, `schema`, zero or more streamed rows frames,
// and a terminal `done` (or `error` at any point). Sessions are
// per-connection; multiple requests may be in flight on one session (that
// is what makes `cancel` reachable while a query runs).
//
// Every frame but the rows frame is JSON. A rows frame is binary: the tag
// byte rowsFrameTag (no JSON text starts with it), the request id as a
// uvarint, then the query's root batches back to back in the PAX-like
// layout the distributed exchanges send between nodes (mpi.AppendBatch).
// The server cuts a frame once it holds at least rowsPerFrame rows; the
// client checks each batch's column kinds against the schema frame before
// it boxes the rows.
package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"vectorh/internal/mpi"
	"vectorh/internal/vector"
)

// Frame format: a 4-byte big-endian payload length followed by the payload.
// Zero-length and oversized frames are protocol errors.
const (
	// DefaultMaxFrameBytes bounds a single frame; it is both a parser
	// sanity limit and a defense against a misbehaving peer committing the
	// server to a multi-gigabyte allocation.
	DefaultMaxFrameBytes = 8 << 20

	frameHeaderLen = 4

	// rowsFrameTag opens a binary rows frame. JSON text starts with '{' or
	// white space, never with a control byte.
	rowsFrameTag = 0x01
)

// Request ops.
const (
	OpQuery     = "query"      // SQL SELECT; streamed response
	OpExec      = "exec"       // SQL DML; done{affected}
	OpExplain   = "explain"    // SQL SELECT; plan text
	OpCancel    = "cancel"     // cancel the in-flight request named by Target
	OpPing      = "ping"       // liveness; pong
	OpPrepare   = "prepare"    // register a '?' template under Stmt; stmt{num_params}
	OpExecute   = "execute"    // run prepared Stmt with Params; query/exec response shape
	OpCloseStmt = "close-stmt" // drop the statement registered under Stmt
	OpMetrics   = "metrics"    // Prometheus text exposition of the metrics registry
	OpProfile   = "profile"    // SQL SELECT under EXPLAIN ANALYZE; plan{analyzed text}
)

// Response types.
const (
	RespSchema  = "schema"
	RespRows    = "rows"
	RespDone    = "done"
	RespError   = "error"
	RespPlan    = "plan"
	RespPong    = "pong"
	RespStmt    = "stmt"
	RespMetrics = "metrics"
)

// Request is one client frame.
type Request struct {
	ID        int64  `json:"id"`
	Op        string `json:"op"`
	SQL       string `json:"sql,omitempty"`
	Target    int64  `json:"target,omitempty"`     // cancel: id of the request to cancel
	TimeoutMs int64  `json:"timeout_ms,omitempty"` // query/exec deadline; 0 = none
	Stmt      int64  `json:"stmt,omitempty"`       // prepare/execute/close-stmt: statement handle (client-chosen)
	Params    []any  `json:"params,omitempty"`     // execute: positional values for the template's '?' markers
}

// ColDesc describes one result column: its physical kind, which the client
// checks every rows frame against, and its logical type.
type ColDesc struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`              // int32|int64|float64|string|bool
	Logical string `json:"logical,omitempty"` // date|decimal when it differs from the kind
}

// logicalNames is how each logical annotation travels in ColDesc.Logical.
var logicalNames = [...]string{vector.Plain: "", vector.Date: "date", vector.Decimal: "decimal"}

// descSchema renders an output schema for the wire.
func descSchema(schema vector.Schema) []ColDesc {
	out := make([]ColDesc, len(schema))
	for i, f := range schema {
		out[i] = ColDesc{Name: f.Name, Kind: f.Type.Kind.String(), Logical: logicalNames[f.Type.Logical]}
	}
	return out
}

// Schema maps wire column descriptors back to the engine schema they
// describe, inverting descSchema.
func Schema(desc []ColDesc) (vector.Schema, error) {
	out := make(vector.Schema, len(desc))
	for i, d := range desc {
		f := vector.Field{Name: d.Name}
		for k := vector.Bool; k <= vector.String; k++ {
			if k.String() == d.Kind {
				f.Type.Kind = k
			}
		}
		l := slices.Index(logicalNames[:], d.Logical)
		if f.Type.Kind == vector.Invalid || l < 0 {
			return nil, fmt.Errorf("server: unknown column type %q/%q", d.Kind, d.Logical)
		}
		f.Type.Logical = vector.Logical(l)
		out[i] = f
	}
	return out, nil
}

// WireError is a structured error; SQL compile errors carry their 1-based
// source position.
type WireError struct {
	Line int    `json:"line,omitempty"`
	Col  int    `json:"col,omitempty"`
	Msg  string `json:"msg"`
}

// Error implements error.
func (e *WireError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return e.Msg
}

// Response is one server frame.
type Response struct {
	ID        int64      `json:"id"`
	Type      string     `json:"type"`
	Schema    []ColDesc  `json:"schema,omitempty"`
	Rows      [][]any    `json:"rows,omitempty"` // never sent: rows travel in binary rows frames
	Affected  int64      `json:"affected,omitempty"`
	ElapsedUs int64      `json:"elapsed_us,omitempty"`
	QueueUs   int64      `json:"queue_us,omitempty"` // done: admission queue wait
	ExecUs    int64      `json:"exec_us,omitempty"`  // done: server-side execution time
	Plan      string     `json:"plan,omitempty"`
	Metrics   string     `json:"metrics,omitempty"` // metrics: Prometheus text
	Err       *WireError `json:"err,omitempty"`
	NumParams int        `json:"num_params,omitempty"` // stmt: '?' count in the template

	// A rows frame as the client's read loop decoded it: its batches, or
	// the error that stopped the decode.
	batches   []*vector.Batch
	decodeErr error
}

// WriteFrame marshals v and writes one frame.
func WriteFrame(w io.Writer, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(payload) > DefaultMaxFrameBytes {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), DefaultMaxFrameBytes)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one frame payload, rejecting zero-length and oversized
// frames (maxBytes <= 0 means DefaultMaxFrameBytes). A truncated frame —
// the peer vanished mid-payload — surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxBytes int) ([]byte, error) {
	return AppendFrame(nil, r, maxBytes)
}

// AppendFrame is ReadFrame appending the payload to dst, so a reader can
// reuse one buffer for every frame of a connection. On an error it returns
// dst at its old length.
func AppendFrame(dst []byte, r io.Reader, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFrameBytes
	}
	// The header is read into dst's spare capacity, where the payload will
	// go: a header array of its own would escape to the heap.
	dst = slices.Grow(dst, frameHeaderLen)
	hdr := dst[len(dst) : len(dst)+frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return dst, err // io.EOF at a frame boundary is a clean disconnect
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return dst, fmt.Errorf("server: zero-length frame")
	}
	if int64(n) > int64(maxBytes) {
		return dst, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, maxBytes)
	}
	out := slices.Grow(dst, int(n))[:len(dst)+int(n)]
	if _, err := io.ReadFull(r, out[len(dst):]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return dst, err
	}
	return out, nil
}

// appendRowsHeader appends the start of a rows frame for request id to dst:
// room for the length header, the tag and the id. The root batches follow,
// appended by mpi.AppendBatch, and sealFrame finishes the frame.
func appendRowsHeader(dst []byte, id int64) []byte {
	dst = append(dst, 0, 0, 0, 0, rowsFrameTag)
	return binary.AppendUvarint(dst, uint64(id))
}

// sealFrame fills in the length header of a frame built in place.
func sealFrame(frame []byte) error {
	n := len(frame) - frameHeaderLen
	if n > DefaultMaxFrameBytes {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, DefaultMaxFrameBytes)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return nil
}

// decodeResponse parses one response payload: a JSON frame, or a rows frame
// decoded into batches that share no memory with payload. A rows frame whose
// id parses but whose batches do not comes back with that id and the error
// in decodeErr, so the failure reaches its request; any other frame that
// does not parse is an error, since no request can be told about it.
func decodeResponse(payload []byte) (*Response, error) {
	if len(payload) == 0 || payload[0] != rowsFrameTag {
		resp := &Response{}
		if err := unmarshalStrictNumbers(payload, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	id, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return nil, errors.New("server: rows frame without a request id")
	}
	resp := &Response{ID: int64(id), Type: RespRows}
	if resp.batches, resp.decodeErr = mpi.DecodeBatches(payload[1+n:]); resp.decodeErr != nil {
		resp.decodeErr = fmt.Errorf("server: bad rows frame: %w", resp.decodeErr)
	}
	return resp, nil
}

// boxRows checks a rows frame's batches against the query's schema and
// boxes their rows, as slices of one []any backing for the frame.
func boxRows(batches []*vector.Batch, schema vector.Schema) ([][]any, error) {
	for _, b := range batches {
		if len(b.Vecs) != len(schema) {
			return nil, fmt.Errorf("server: rows frame has %d columns, schema %d", len(b.Vecs), len(schema))
		}
		for i, v := range b.Vecs {
			if v.Kind() != schema[i].Type.Kind {
				return nil, fmt.Errorf("server: column %d is %s in a rows frame, %s in the schema", i, v.Kind(), schema[i].Type.Kind)
			}
		}
	}
	return vector.BoxRows(nil, batches...), nil
}
