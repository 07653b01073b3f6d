package pdt

import (
	"math/rand"
	"slices"
	"testing"

	"vectorh/internal/vector"
)

// stackOps drives a Read- and a Write-PDT over a stable image of n rows from
// fuzz bytes, two per operation: rid-based inserts, deletes, modifies of
// either column and appends go to the Write layer, and a propagation replays
// the Write layer into a copy of the Read layer and starts a new one — so the
// Write layer's deltas land on rows the Read layer inserted, deleted around
// or modified. It returns the layers, the plain-slice model of the image and,
// parallel to it, where each model row came from.
func stackOps(t *testing.T, n int, ops []byte) (read, write *PDT, model [][]any, from []origin) {
	read, write = New(int64(n)), New(int64(n))
	for i := range n {
		model = append(model, []any{int64(i), "s" + itoa(i)})
		from = append(from, origin{sid: int64(i)})
	}
	next := int64(1000)
	for k := 0; k+1 < len(ops); k += 2 {
		size := len(model)
		pos := int(ops[k+1])
		switch op := ops[k] % 6; {
		case op == 0 || (op <= 3 && size == 0):
			rid := pos % (size + 1)
			row := []any{next, "n" + itoa(int(next))}
			next++
			if err := write.Insert(int64(rid), row); err != nil {
				t.Fatal(err)
			}
			model = append(model[:rid], append([][]any{row}, model[rid:]...)...)
			from = slices.Insert(from, rid, origin{sid: -1})
		case op == 1:
			rid := pos % size
			if err := write.Delete(int64(rid)); err != nil {
				t.Fatal(err)
			}
			model = append(model[:rid], model[rid+1:]...)
			from = slices.Delete(from, rid, rid+1)
		case op == 2 || op == 3:
			rid, col := pos%size, op-2
			var v any = "m" + itoa(k)
			if col == 0 {
				v = int64(-k)
			}
			if err := write.Modify(int64(rid), []int{int(col)}, []any{v}); err != nil {
				t.Fatal(err)
			}
			row := append([]any(nil), model[rid]...)
			row[col] = v
			model[rid] = row
			from[rid].mods |= 1 << col
		case op == 4:
			row := []any{next, "a" + itoa(int(next))}
			next++
			write.Append(row)
			model = append(model, row)
			from = append(from, origin{sid: -1})
		default:
			nr := read.CopyOnWrite()
			if err := Replay(nr, write); err != nil {
				t.Fatal(err)
			}
			read, write = nr, New(nr.Size())
		}
	}
	return read, write, model, from
}

// origin is where a model row came from: its stable row (-1 for an inserted
// row) and the columns a modify set, as bits.
type origin struct {
	sid  int64
	mods uint8
}

func appendBatchRows(rows [][]any, b *vector.Batch) [][]any {
	for i := 0; i < b.Len(); i++ {
		rows = append(rows, b.Row(i))
	}
	return rows
}

// checkStack compares, span by span of step rows, the stacked merger's
// MergeRange and its Span description applied positionally — deletes
// skipped, columns patched, inserted rows in front of their stable row —
// against the model, and each span's first output position against the
// rows before it. Per column, the values Span.Sets offers keep must be the
// model's values of the span's surviving stable rows a modify set, in row
// order: none of a row deleted by either layer, none of an inserted row.
func checkStack(t *testing.T, read, write *PDT, model [][]any, from []origin, step int) {
	t.Helper()
	n := int(read.StableRows())
	img := stableImage(n)
	m := NewStackedMerger(read, write, schema, []int{0, 1})
	var merged, applied [][]any
	var d Span
	var modVals [2]map[int64]any // stable row -> the model's value a modify set
	for c := range modVals {
		modVals[c] = map[int64]any{}
	}
	for i, o := range from {
		for c := range modVals {
			if o.sid >= 0 && o.mods&(1<<c) != 0 {
				modVals[c][o.sid] = model[i][c]
			}
		}
	}
	for s0 := 0; s0 < n; s0 += step {
		s1 := min(s0+step, n)
		in := &vector.Batch{Vecs: []*vector.Vec{img.Col(0).Slice(s0, s1), img.Col(1).Slice(s0, s1)}}
		out, rid, err := m.MergeRange(in, int64(s0))
		if err != nil {
			t.Fatal(err)
		}
		if rid != int64(len(merged)) {
			t.Fatalf("span %d: first output position %d, %d rows before it", s0, rid, len(merged))
		}
		merged = appendBatchRows(merged, out)

		m.Span(int64(s0), s1-s0, &d)
		for c := range modVals {
			var want, got []any
			for s := int64(s0); s < int64(s1); s++ {
				if v, ok := modVals[c][s]; ok {
					want = append(want, v)
				}
			}
			if d.Sets(c, func(v any) bool { got = append(got, v); return false }) {
				t.Fatalf("span %d: Sets(%d) with a keep that accepts nothing", s0, c)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("span %d: Sets(%d) offers %v, model %v", s0, c, got, want)
			}
			if set := d.Sets(c, nil); set != (len(want) > 0) {
				t.Fatalf("span %d: Sets(%d, nil) = %v, model %v", s0, c, set, want)
			}
			for _, w := range want {
				if !d.Sets(c, func(v any) bool { return v == w }) {
					t.Fatalf("span %d: Sets(%d) does not find %v", s0, c, w)
				}
			}
		}
		cols := []*vector.Vec{d.Patch(in.Col(0), 0), d.Patch(in.Col(1), 1)}
		ins, del := d.Ins, d.Del
		for p := range int32(s1 - s0) {
			if len(ins) > 0 && ins[0] == p {
				for _, b := range m.Inserted(int64(s0)+int64(p), nil) {
					applied = appendBatchRows(applied, b)
				}
				ins = ins[1:]
			}
			if len(del) > 0 && del[0] == p {
				del = del[1:]
				continue
			}
			applied = append(applied, []any{cols[0].Get(int(p)), cols[1].Get(int(p))})
		}
		if len(ins)+len(del) > 0 {
			t.Fatalf("span %d: offsets past its end: ins %v del %v", s0, ins, del)
		}
	}
	if tail, rid := m.Tail(); tail != nil {
		if rid != int64(len(merged)) {
			t.Fatalf("tail: first output position %d, %d rows before it", rid, len(merged))
		}
		merged = appendBatchRows(merged, tail)
	}
	for _, b := range m.Inserted(int64(n), nil) {
		applied = appendBatchRows(applied, b)
	}
	for what, rows := range map[string][][]any{"MergeRange": merged, "Span": applied} {
		if len(rows) != len(model) {
			t.Fatalf("%s: %d rows, model %d", what, len(rows), len(model))
		}
		for i := range rows {
			if rows[i][0] != model[i][0] || rows[i][1] != model[i][1] {
				t.Fatalf("%s row %d: %v, model %v", what, i, rows[i], model[i])
			}
		}
	}
}

// FuzzStackedMerge model-checks the two-layer merge: stable size, span
// length and an operation sequence over both PDT layers from the fuzzer;
// MergeRange and the positional application of Span must both produce the
// slice model's image.
func FuzzStackedMerge(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for range 16 {
		ops := make([]byte, 2*(20+rng.Intn(200)))
		rng.Read(ops)
		f.Add(uint8(rng.Intn(80)), uint8(1+rng.Intn(16)), ops)
	}
	f.Add(uint8(0), uint8(1), []byte{0, 0, 5, 0, 1, 0})
	// A Read-layer modify of a row the Write layer deletes, a Write-layer
	// modify of a row the Read layer inserted, and one of a stable row:
	// Sets reports only the last.
	f.Add(uint8(4), uint8(2), []byte{2, 1, 0, 0, 5, 0, 1, 2, 3, 0, 2, 2})
	f.Fuzz(func(t *testing.T, n, step uint8, ops []byte) {
		if step == 0 {
			step = 1
		}
		read, write, model, from := stackOps(t, int(n), ops)
		checkStack(t, read, write, model, from, int(step))
	})
}

// TestMemoFollowsWrites checks the memo a PDT shares with its mergers: a
// PDT still being written never serves a stale one — every kind of write
// drops it — while scans of a PDT nobody writes share one, built at most
// once per concurrent first use.
func TestMemoFollowsWrites(t *testing.T) {
	p := New(4)
	model := [][]any{}
	for i := range 4 {
		model = append(model, []any{int64(i), "s" + itoa(i)})
	}
	check := func(what string) {
		t.Helper()
		rows := materialize(t, p, stableImage(4))
		if len(rows) != len(model) {
			t.Fatalf("after %s: %d rows, model %d", what, len(rows), len(model))
		}
		for i := range rows {
			if rows[i][0] != model[i][0] || rows[i][1] != model[i][1] {
				t.Fatalf("after %s row %d: %v, model %v", what, i, rows[i], model[i])
			}
		}
	}
	check("nothing")
	p.Append([]any{int64(10), "a"})
	model = append(model, []any{int64(10), "a"})
	check("append")
	if err := p.Insert(1, []any{int64(11), "i"}); err != nil {
		t.Fatal(err)
	}
	model = append(model[:1], append([][]any{{int64(11), "i"}}, model[1:]...)...)
	check("insert")
	if err := p.Modify(4, []int{1}, []any{"m"}); err != nil { // the appended row
		t.Fatal(err)
	}
	model[4] = []any{int64(3), "m"}
	check("modify")
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	model = model[1:]
	check("delete")
	next := p.CopyOnWrite()
	if err := ApplyTrans(next, []Entry{{Sid: 4, Kind: Ins, Row: []any{int64(12), "t"}}}, 0, 1); err != nil {
		t.Fatal(err)
	}
	check("a commit into a copy") // p itself is unchanged
	p = next
	model = append(model, []any{int64(12), "t"})
	check("apply")

	// Concurrent first use of a published PDT's memo.
	done := make(chan *vector.Batch)
	for range 4 {
		go func() {
			tail, _ := NewMerger(p, schema, []int{0, 1}).Tail()
			done <- tail
		}()
	}
	for range 4 {
		if tail := <-done; tail.Len() != 2 {
			t.Fatalf("tail has %d rows, want 2", tail.Len())
		}
	}
}

// TestSpanSetsComposesLayers: Span.Sets offers the value a stacked merger
// reads for each surviving stable row a modify set — the Write layer's where
// both layers set the column, the Read layer's where only it does — and
// nothing of a row the Write layer deleted or of a span no modify touches.
func TestSpanSetsComposesLayers(t *testing.T) {
	read, write := New(10), New(10)
	for _, m := range []struct {
		p   *PDT
		rid int64
		col int
		v   any
	}{
		{read, 5, 0, int64(100)},
		{read, 6, 1, "r"},
		{read, 8, 0, int64(300)},
		{write, 5, 0, int64(200)},
		{write, 7, 1, "w"},
	} {
		if err := m.p.Modify(m.rid, []int{m.col}, []any{m.v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := write.Delete(8); err != nil {
		t.Fatal(err)
	}
	m := NewStackedMerger(read, write, schema, []int{0, 1})
	is := func(want any) func(any) bool { return func(v any) bool { return v == want } }
	var d Span
	m.Span(0, 10, &d)
	for _, c := range []struct {
		what string
		col  int
		keep func(any) bool
		want bool
	}{
		{"the Write layer's value", 0, is(int64(200)), true},
		{"the Read layer's value under the Write layer's", 0, is(int64(100)), false},
		{"a deleted row's value", 0, is(int64(300)), false},
		{"the Read layer's value alone", 1, is("r"), true},
		{"the Write layer's value alone", 1, is("w"), true},
		{"any value of k", 0, nil, true},
		{"a value no modify set", 1, is("s7"), false},
	} {
		if got := d.Sets(c.col, c.keep); got != c.want {
			t.Errorf("span [0,10): Sets(%d) for %s = %v, want %v", c.col, c.what, got, c.want)
		}
	}
	m.Span(0, 5, &d)
	if d.Sets(0, nil) || d.Sets(1, nil) {
		t.Error("span [0,5): Sets reports a modify of a span no delta touches")
	}
	m.Span(8, 2, &d)
	if d.Sets(0, nil) {
		t.Error("span [8,10): Sets reports the modify of a row the Write layer deleted")
	}
}
