package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vectorh/internal/vector"
)

// Client is one session against a vectorh-serve instance. It is safe for
// concurrent use; requests are multiplexed by id over one connection, which
// is what lets Cancel (or a cancelled context) reach a query already in
// flight.
type Client struct {
	conn     net.Conn
	nextID   atomic.Int64
	nextStmt atomic.Int64
	closed   atomic.Bool

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[int64]chan *Response
	readErr error
	done    chan struct{}
}

// errClientClosed is returned by any operation attempted after Close. It is
// an ordinary error, never a panic: a racing cancel frame (a context firing
// while Close tears the session down) must degrade cleanly.
var errClientClosed = errors.New("server: client closed")

// Result is a fully collected query result. Queue and Exec are the
// server-side admission-wait / execution split carried in the done frame;
// they are zero when the server predates the split.
type Result struct {
	Schema  []ColDesc
	Rows    [][]any
	Elapsed time.Duration
	Queue   time.Duration
	Exec    time.Duration
}

// Dial connects to a serving instance.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, pending: make(map[int64]chan *Response), done: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// Close tears the session down; in-flight requests fail with a clean
// connection-lost error. Close is idempotent and safe to race with
// in-flight Query/Exec/Cancel traffic.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		<-c.done
		return nil
	}
	err := c.conn.Close()
	<-c.done // reader drained; every pending channel is closed
	if errors.Is(err, net.ErrClosed) {
		err = nil // the reader closed it on a bad frame
	}
	return err
}

// readLoop reads every frame of the connection into one reused buffer and
// routes it to its request. A frame it cannot attribute to a request ends the
// session: dropping it could silently shorten a result that then reports
// success.
func (c *Client) readLoop() {
	defer close(c.done)
	var buf []byte
	for {
		var resp *Response
		var err error
		if buf, err = AppendFrame(buf[:0], c.conn, 0); err == nil {
			if resp, err = decodeResponse(buf); err != nil {
				err = fmt.Errorf("server: bad response frame: %w", err)
				c.conn.Close()
			}
		}
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		if ch != nil && (resp.Type == RespDone || resp.Type == RespError) {
			// Terminal frame: unregister before delivery so a late
			// duplicate cannot block.
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
			if resp.Type == RespDone || resp.Type == RespError {
				close(ch)
			}
		}
	}
}

func (c *Client) register() (int64, chan *Response, error) {
	if c.closed.Load() {
		return 0, nil, errClientClosed
	}
	id := c.nextID.Add(1)
	ch := make(chan *Response, 16)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return 0, nil, fmt.Errorf("server: connection lost: %w", c.readErr)
	}
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Client) unregister(id int64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *Client) writeFrame(v any) error {
	if c.closed.Load() || c.conn == nil {
		return errClientClosed
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteFrame(c.conn, v)
}

func (c *Client) roundTrip(req *Request) (*Response, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	req.ID = id
	// Single-frame ops (pong/plan/metrics) are not terminal frames in the
	// reader's eyes, so unregister here — otherwise every Ping/Explain/
	// Metrics would leak a pending entry for the connection's lifetime.
	defer c.unregister(id)
	if err := c.writeFrame(req); err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		return nil, c.connLost()
	}
	if resp.Type == RespError {
		return nil, resp.Err
	}
	return resp, nil
}

func (c *Client) connLost() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return fmt.Errorf("server: connection lost: %w", c.readErr)
	}
	return errors.New("server: connection lost")
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// Explain returns the distributed physical plan text.
func (c *Client) Explain(query string) (string, error) {
	resp, err := c.roundTrip(&Request{Op: OpExplain, SQL: query})
	if err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Metrics fetches the server's metrics registry in Prometheus text
// exposition format.
func (c *Client) Metrics() (string, error) {
	resp, err := c.roundTrip(&Request{Op: OpMetrics})
	if err != nil {
		return "", err
	}
	return resp.Metrics, nil
}

// Profile runs a SELECT under EXPLAIN ANALYZE on the server and returns the
// rendered profile (annotated plan, phase spans, scan IO totals). The query
// executes fully server-side; rows are discarded there, so only the text
// crosses the wire. Unlike Explain, profiling counts against the admission
// limit (it really runs the query), hence the context.
func (c *Client) Profile(ctx context.Context, query string) (string, error) {
	var plan string
	err := c.run(ctx, &Request{Op: OpProfile, SQL: query}, func(resp *Response) error {
		if resp.Type == RespPlan {
			plan = resp.Plan
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return plan, nil
}

// Exec runs one DML statement, returning affected rows.
func (c *Client) Exec(ctx context.Context, stmt string) (int64, error) {
	return c.exec(ctx, &Request{Op: OpExec, SQL: stmt})
}

// exec runs a DML request to its done frame and returns the affected rows.
func (c *Client) exec(ctx context.Context, req *Request) (int64, error) {
	var affected int64
	err := c.run(ctx, req, func(resp *Response) error {
		if resp.Type == RespDone {
			affected = resp.Affected
		}
		return nil
	})
	return affected, err
}

// Query runs a SELECT and collects the streamed result, including the
// server-side queue/exec timing split from the done frame. Cancelling ctx
// sends a wire-level cancel for the in-flight query; the engine stops its
// scans and exchange senders at the next batch boundary.
func (c *Client) Query(ctx context.Context, query string) (*Result, error) {
	return c.collect(ctx, &Request{Op: OpQuery, SQL: query})
}

// QueryStream runs a SELECT, invoking yield for the schema frame (rows nil)
// and for every rows frame as it arrives.
func (c *Client) QueryStream(ctx context.Context, query string, yield func(schema []ColDesc, rows [][]any) error) error {
	_, err := c.query(ctx, &Request{Op: OpQuery, SQL: query}, yield)
	return err
}

// PreparedStmt is a server-side '?' template bound to one client session.
// Execute round-trips only the handle and the positional values; the server
// splices them into the template and runs the result through the shared
// plan cache, so repeated executions skip SQL compilation entirely.
type PreparedStmt struct {
	c         *Client
	id        int64
	numParams int
}

// Prepare registers a parameterized statement template on the server.
func (c *Client) Prepare(query string) (*PreparedStmt, error) {
	id := c.nextStmt.Add(1)
	resp, err := c.roundTrip(&Request{Op: OpPrepare, SQL: query, Stmt: id})
	if err != nil {
		return nil, err
	}
	if resp.Type != RespStmt {
		return nil, fmt.Errorf("server: unexpected %q response to prepare", resp.Type)
	}
	return &PreparedStmt{c: c, id: id, numParams: resp.NumParams}, nil
}

// NumParams returns the number of '?' markers in the template.
func (p *PreparedStmt) NumParams() int { return p.numParams }

// Query executes a prepared SELECT with the given parameter values and
// collects the streamed result like Client.Query.
func (p *PreparedStmt) Query(ctx context.Context, params ...any) (*Result, error) {
	return p.c.collect(ctx, p.execute(params))
}

// QueryStream executes a prepared SELECT, invoking yield like
// Client.QueryStream.
func (p *PreparedStmt) QueryStream(ctx context.Context, params []any, yield func(schema []ColDesc, rows [][]any) error) error {
	_, err := p.c.query(ctx, p.execute(params), yield)
	return err
}

// Exec executes a prepared DML statement, returning affected rows.
func (p *PreparedStmt) Exec(ctx context.Context, params ...any) (int64, error) {
	return p.c.exec(ctx, p.execute(params))
}

// Close drops the statement on the server.
func (p *PreparedStmt) Close() error {
	_, err := p.c.roundTrip(&Request{Op: OpCloseStmt, Stmt: p.id})
	return err
}

// execute is the request that runs the statement with params. Params is
// never nil, so a zero-parameter execute still carries `"params":[]` (the
// server distinguishes "no values" from a malformed frame by count, not
// presence).
func (p *PreparedStmt) execute(params []any) *Request {
	if params == nil {
		params = []any{}
	}
	return &Request{Op: OpExecute, Stmt: p.id, Params: params}
}

// collect runs a query request and gathers its rows and done-frame timings.
func (c *Client) collect(ctx context.Context, req *Request) (*Result, error) {
	res := &Result{}
	done, err := c.query(ctx, req, func(schema []ColDesc, rows [][]any) error {
		res.Schema = schema
		res.Rows = append(res.Rows, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Duration(done.ElapsedUs) * time.Microsecond
	res.Queue = time.Duration(done.QueueUs) * time.Microsecond
	res.Exec = time.Duration(done.ExecUs) * time.Microsecond
	return res, nil
}

// query is the one consumer of a query's frames. The schema frame is
// yielded with nil rows; each rows frame, decoded by the read loop, is
// checked against the schema, boxed and yielded; the done frame is
// returned.
func (c *Client) query(ctx context.Context, req *Request, yield func(schema []ColDesc, rows [][]any) error) (*Response, error) {
	var desc []ColDesc
	var schema vector.Schema
	var done *Response
	err := c.run(ctx, req, func(resp *Response) error {
		switch resp.Type {
		case RespSchema:
			var err error
			if schema, err = Schema(resp.Schema); err != nil {
				return err
			}
			desc = resp.Schema
			return yield(desc, nil)
		case RespRows:
			if schema == nil {
				return errors.New("server: rows frame before schema frame")
			}
			rows, err := boxRows(resp.batches, schema)
			if err != nil {
				return err
			}
			return yield(desc, rows)
		case RespDone:
			done = resp
		}
		return nil
	})
	return done, err
}

// run drives one request to its terminal frame, racing the context: on
// ctx cancellation it sends a cancel frame for the request and keeps
// draining until the server acknowledges with the terminal error.
func (c *Client) run(ctx context.Context, req *Request, onFrame func(*Response) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if dl, ok := ctx.Deadline(); ok {
		// Round up: a 1ms deadline must reach the server as 1ms, not 0.
		if ms := (time.Until(dl) + time.Millisecond - 1) / time.Millisecond; ms > 0 {
			req.TimeoutMs = int64(ms)
		} else {
			return context.DeadlineExceeded
		}
	}
	id, ch, err := c.register()
	if err != nil {
		return err
	}
	req.ID = id
	if err := c.writeFrame(req); err != nil {
		c.unregister(id)
		return err
	}
	cancelSent := false
	for {
		select {
		case resp, ok := <-ch:
			if !ok {
				return c.connLost()
			}
			switch resp.Type {
			case RespError:
				return resp.Err
			case RespDone:
				return onFrame(resp)
			default:
				err := resp.decodeErr
				if err == nil {
					err = onFrame(resp)
				}
				if err != nil {
					// The consumer bailed: cancel server-side, then drain
					// to the terminal frame so the session stays usable.
					if !cancelSent {
						c.writeFrame(&Request{Op: OpCancel, Target: id})
						cancelSent = true
					}
					c.drain(ch)
					return err
				}
			}
		case <-ctx.Done():
			if !cancelSent {
				if err := c.writeFrame(&Request{Op: OpCancel, Target: id}); err != nil {
					c.unregister(id)
					return context.Cause(ctx)
				}
				cancelSent = true
			}
			c.drain(ch)
			return context.Cause(ctx)
		}
	}
}

// drain consumes frames until the request's channel closes (terminal frame
// delivered or connection lost), with a safety timeout.
func (c *Client) drain(ch chan *Response) {
	timeout := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-timeout:
			return
		}
	}
}
