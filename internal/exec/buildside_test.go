package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// countingSource counts its Opens, the Nexts that found its end, and its
// Closes; it fails its Next with err once it has returned failAfter batches
// (never for failAfter < 0).
type countingSource struct {
	Operator
	opens, ends, closes atomic.Int32
	batches             int
	failAfter           int
	err                 error
}

func (c *countingSource) Open() error { c.opens.Add(1); c.batches = 0; return c.Operator.Open() }

func (c *countingSource) Next() (*vector.Batch, error) {
	if c.failAfter >= 0 && c.batches == c.failAfter {
		return nil, c.err
	}
	b, err := c.Operator.Next()
	if b == nil && err == nil {
		c.ends.Add(1)
	}
	c.batches++
	return b, err
}

func (c *countingSource) Close() error { c.closes.Add(1); return c.Operator.Close() }

// drain opens, drains and closes op, returning its live rows as strings. It
// fails on the first batch whose vectors differ in length or whose selection
// points past them (lengthsErr).
func drain(op Operator) ([]string, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	var rows []string
	for {
		b, err := op.Next()
		if err != nil {
			op.Close()
			return nil, err
		}
		if b == nil {
			return rows, op.Close()
		}
		if err := lengthsErr(b); err != nil {
			op.Close()
			return nil, err
		}
		for _, r := range vector.BoxRows(nil, b) {
			rows = append(rows, fmt.Sprint(r))
		}
	}
}

// sharedJoins returns one HashJoin per probe input, all over one build side
// on a counting source over build.
func sharedJoins(jt JoinType, build mergeInput, probes []mergeInput, failAfter int, err error) ([]*HashJoin, *BuildSide, *countingSource) {
	src := &countingSource{Operator: build.source(), failAfter: failAfter, err: err}
	key := []expr.Expr{expr.Col(0, mergeKinds(build.key32)[0])}
	side := NewBuildSide(src, key, mergeKinds(build.key32), len(probes))
	joins := make([]*HashJoin, len(probes))
	for i, p := range probes {
		joins[i] = &HashJoin{Build: side, Probe: p.source(), ProbeKeys: key, Type: jt}
	}
	return joins, side, src
}

// runAll runs f(i) for i < n, each on its own goroutine, and fails the test
// if they do not all return within a generous deadline.
func runAll(t *testing.T, n int, f func(i int)) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() { defer wg.Done(); f(i) }()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("streams over one build side blocked")
	}
}

// TestSharedBuildSide: streams whose HashJoins share one BuildSide, each on
// its own goroutine, join as if each had a table of its own; the build
// source is opened, drained and closed once, and closed only by the last
// stream to close.
func TestSharedBuildSide(t *testing.T) {
	const streams = 4
	build := mergeInput{batches: mergeRuns(3000, 3, 700, 0, 2), sel: true}
	var probes []mergeInput
	for s := range streams {
		probes = append(probes, mergeInput{batches: mergeRuns(2500+s*300, 1+s, 333, int64(s), 1), sel: s%2 == 1})
	}
	for _, jt := range []JoinType{Inner, LeftOuter, Semi, Anti} {
		t.Run(fmt.Sprintf("type=%d", jt), func(t *testing.T) {
			joins, side, src := sharedJoins(jt, build, probes, -1, nil)
			got := make([][]string, streams)
			errs := make([]error, streams)
			runAll(t, streams, func(i int) { got[i], errs[i] = drain(joins[i]) })
			for i := range streams {
				if errs[i] != nil {
					t.Fatalf("stream %d: %v", i, errs[i])
				}
				want, err := drain(newJoin(false, jt, probes[i].source(), build.source(), false))
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !slices.Equal(got[i], want) {
					t.Fatalf("stream %d: %d rows over the shared table, %d over a private one", i, len(got[i]), len(want))
				}
			}
			if o, e, c := src.opens.Load(), src.ends.Load(), src.closes.Load(); o != 1 || e != 1 || c != 1 {
				t.Fatalf("build source opened %d, drained %d, closed %d times; want once each", o, e, c)
			}
			if n, want := side.BuiltRows(), int64(len(build.rows())); n != want {
				t.Fatalf("built %d rows, want %d", n, want)
			}
		})
	}
}

// TestSharedBuildSideError: a build error reaches every stream as the same
// error, and the source is still closed once.
func TestSharedBuildSideError(t *testing.T) {
	const streams = 3
	errBuild := errors.New("build source failed")
	build := mergeInput{batches: mergeRuns(500, 1, 100, 0, 1)}
	probes := slices.Repeat([]mergeInput{{batches: mergeRuns(200, 1, 50, 0, 1)}}, streams)
	joins, _, src := sharedJoins(Inner, build, probes, 2, errBuild)
	errs := make([]error, streams)
	runAll(t, streams, func(i int) { _, errs[i] = drain(joins[i]) })
	for i, err := range errs {
		if err != errBuild {
			t.Errorf("stream %d: error %v, want the build's own", i, err)
		}
	}
	if c := src.closes.Load(); c != 1 {
		t.Fatalf("build source closed %d times, want 1", c)
	}
}

// TestSharedBuildSideEarlyClose: streams that close before their first Next
// block nobody, and the source closes only with the last stream, whether the
// one that built is the last or an early closer is.
func TestSharedBuildSideEarlyClose(t *testing.T) {
	const streams = 3
	build := mergeInput{batches: mergeRuns(500, 1, 100, 0, 1)}
	probes := slices.Repeat([]mergeInput{{batches: mergeRuns(200, 1, 50, 0, 1)}}, streams)
	want, err := drain(newJoin(false, Inner, probes[0].source(), build.source(), false))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("builder last", func(t *testing.T) {
		joins, side, src := sharedJoins(Inner, build, probes, -1, nil)
		for _, j := range joins[1:] {
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if c := src.closes.Load(); c != 0 {
			t.Fatalf("build source closed %d times with a user left", c)
		}
		var got []string
		runAll(t, 1, func(int) { got, err = drain(joins[0]) })
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%d rows, err %v; want %d rows", len(got), err, len(want))
		}
		if o, c := src.opens.Load(), src.closes.Load(); o != 1 || c != 1 {
			t.Fatalf("build source opened %d, closed %d times; want once each", o, c)
		}
		if side.tab != nil || side.cols != nil {
			t.Fatal("table kept after the last Close")
		}
	})
	t.Run("early closer last", func(t *testing.T) {
		joins, side, src := sharedJoins(Inner, build, probes, -1, nil)
		for _, j := range joins {
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
		}
		got := make([][]string, streams-1)
		runAll(t, streams-1, func(i int) {
			for {
				b, err := joins[i].Next()
				if err != nil {
					t.Error(err)
				}
				if b == nil || err != nil {
					break
				}
				for _, r := range vector.BoxRows(nil, b) {
					got[i] = append(got[i], fmt.Sprint(r))
				}
			}
			joins[i].Close()
		})
		for i := range got {
			if !slices.Equal(got[i], want) {
				t.Fatalf("stream %d: %d rows, want %d", i, len(got[i]), len(want))
			}
		}
		if c := src.closes.Load(); c != 0 {
			t.Fatalf("build source closed %d times with a user left", c)
		}
		if err := joins[streams-1].Close(); err != nil {
			t.Fatal(err)
		}
		if c := src.closes.Load(); c != 1 {
			t.Fatalf("build source closed %d times, want 1", c)
		}
		if side.tab != nil || side.cols != nil {
			t.Fatal("table kept after the last Close")
		}
	})
}
