// Package server is the VectorH serving layer (vectorh-serve): a TCP
// front door that turns the in-process engine into a concurrent multi-user
// service — the deployment shape the paper positions VectorH in (an
// interactive, multi-user MPP SQL engine, §1) and the axis on which the
// SQL-on-Hadoop systems it compares against differentiate under concurrency.
//
// The wire protocol is deliberately small: length-prefixed JSON frames. A
// request is one frame; a response is a sequence of frames sharing the
// request id — for a query, `schema`, zero or more streamed `rows` batches,
// and a terminal `done` (or `error` at any point). Sessions are
// per-connection; multiple requests may be in flight on one session (that
// is what makes `cancel` reachable while a query runs).
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"vectorh/internal/vector"
)

// Frame format: a 4-byte big-endian payload length followed by a JSON
// payload. Zero-length and oversized frames are protocol errors.
const (
	// DefaultMaxFrameBytes bounds a single frame; it is both a parser
	// sanity limit and a defense against a misbehaving peer committing the
	// server to a multi-gigabyte allocation.
	DefaultMaxFrameBytes = 8 << 20

	frameHeaderLen = 4
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

// ColDesc describes one result column (the client needs the physical kind
// and the logical type to decode JSON numbers back into engine-identical
// values).
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
	Rows      [][]any    `json:"rows,omitempty"`
	Affected  int64      `json:"affected,omitempty"`
	ElapsedUs int64      `json:"elapsed_us,omitempty"`
	QueueUs   int64      `json:"queue_us,omitempty"` // done: admission queue wait
	ExecUs    int64      `json:"exec_us,omitempty"`  // done: server-side execution time
	Plan      string     `json:"plan,omitempty"`
	Metrics   string     `json:"metrics,omitempty"` // metrics: Prometheus text
	Err       *WireError `json:"err,omitempty"`
	NumParams int        `json:"num_params,omitempty"` // stmt: '?' count in the template
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
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFrameBytes
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF at a frame boundary is a clean disconnect
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("server: zero-length frame")
	}
	if int64(n) > int64(maxBytes) {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, maxBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}
