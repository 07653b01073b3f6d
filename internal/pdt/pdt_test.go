package pdt

import (
	"errors"
	"math/rand"
	"testing"

	"vectorh/internal/vector"
)

var schema = vector.Schema{{Name: "k", Type: vector.TInt64}, {Name: "s", Type: vector.TString}}

// stableImage builds the dense stable batch [0, n) with k=i, s="s<i>".
func stableImage(n int) *vector.Batch {
	b := vector.NewBatchForSchema(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(int64(i), "s"+itoa(i))
	}
	return b
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// materialize runs a full merge-scan of the PDT over the stable image.
func materialize(t *testing.T, p *PDT, stable *vector.Batch) [][]any {
	t.Helper()
	m := NewMerger(p, schema, []int{0, 1})
	var rows [][]any
	const step = 7 // odd batch size exercises range boundaries
	n := int(p.StableRows())
	for s0 := 0; s0 < n; s0 += step {
		s1 := s0 + step
		if s1 > n {
			s1 = n
		}
		in := &vector.Batch{Vecs: []*vector.Vec{stable.Col(0).Slice(s0, s1), stable.Col(1).Slice(s0, s1)}}
		out, _, err := m.MergeRange(in, int64(s0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < out.Len(); i++ {
			rows = append(rows, out.Row(i))
		}
	}
	if tail, _ := m.Tail(); tail != nil {
		for i := 0; i < tail.Len(); i++ {
			rows = append(rows, tail.Row(i))
		}
	}
	return rows
}

func TestEmptyPDTPassThrough(t *testing.T) {
	p := New(10)
	stable := stableImage(10)
	rows := materialize(t, p, stable)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if p.Size() != 10 {
		t.Fatalf("Size = %d", p.Size())
	}
	m := NewMerger(p, schema, []int{0, 1})
	if m.HasDeltas() {
		t.Fatal("empty PDT should report no deltas")
	}
}

func TestAppendAndTail(t *testing.T) {
	p := New(5)
	p.Append([]any{int64(100), "x"})
	p.Append([]any{int64(101), "y"})
	if p.Size() != 7 {
		t.Fatalf("Size = %d", p.Size())
	}
	rows := materialize(t, p, stableImage(5))
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[5][0].(int64) != 100 || rows[6][1].(string) != "y" {
		t.Fatalf("tail rows = %v %v", rows[5], rows[6])
	}
}

func TestInsertMiddle(t *testing.T) {
	p := New(4) // image: 0 1 2 3
	if err := p.Insert(2, []any{int64(99), "ins"}); err != nil {
		t.Fatal(err)
	}
	rows := materialize(t, p, stableImage(4))
	want := []int64{0, 1, 99, 2, 3}
	for i, w := range want {
		if rows[i][0].(int64) != w {
			t.Fatalf("rows = %v", rows)
		}
	}
	// Insert again at the same position: lands before the prior insert.
	if err := p.Insert(2, []any{int64(98), "ins2"}); err != nil {
		t.Fatal(err)
	}
	rows = materialize(t, p, stableImage(4))
	want = []int64{0, 1, 98, 99, 2, 3}
	for i, w := range want {
		if rows[i][0].(int64) != w {
			t.Fatalf("after second insert rows = %v", rows)
		}
	}
}

func TestDeleteStableAndInsert(t *testing.T) {
	p := New(4)
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	rows := materialize(t, p, stableImage(4))
	want := []int64{0, 2, 3}
	for i, w := range want {
		if rows[i][0].(int64) != w {
			t.Fatalf("rows = %v", rows)
		}
	}
	// Insert then delete the insert: net zero entries.
	if err := p.Insert(1, []any{int64(55), "i"}); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	ins, del, mod := p.Counts()
	if ins != 0 || del != 1 || mod != 0 {
		t.Fatalf("counts = %d/%d/%d", ins, del, mod)
	}
}

func TestModifyStableAndOwnInsert(t *testing.T) {
	p := New(3)
	if err := p.Modify(1, []int{1}, []any{"patched"}); err != nil {
		t.Fatal(err)
	}
	rows := materialize(t, p, stableImage(3))
	if rows[1][1].(string) != "patched" || rows[1][0].(int64) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// Second modify on another column merges into the same entry.
	if err := p.Modify(1, []int{0}, []any{int64(-1)}); err != nil {
		t.Fatal(err)
	}
	_, _, mod := p.Counts()
	if mod != 1 {
		t.Fatalf("mod entries = %d, want 1 (merged)", mod)
	}
	rows = materialize(t, p, stableImage(3))
	if rows[1][0].(int64) != -1 || rows[1][1].(string) != "patched" {
		t.Fatalf("rows = %v", rows)
	}
	// Modify an uncommitted insert: updates the insert row itself.
	p.Append([]any{int64(7), "tail"})
	if err := p.Modify(p.Size()-1, []int{1}, []any{"tail2"}); err != nil {
		t.Fatal(err)
	}
	rows = materialize(t, p, stableImage(3))
	if rows[len(rows)-1][1].(string) != "tail2" {
		t.Fatalf("rows = %v", rows)
	}
	ins, _, mod := p.Counts()
	if ins != 1 || mod != 1 {
		t.Fatalf("counts ins=%d mod=%d", ins, mod)
	}
}

func TestModifyDeletedFails(t *testing.T) {
	p := New(3)
	p.Delete(1)
	// rid 1 is now stable tuple 2.
	if err := p.Modify(1, []int{0}, []any{int64(0)}); err != nil {
		t.Fatal(err)
	}
	rows := materialize(t, p, stableImage(3))
	if rows[1][0].(int64) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSidRidTranslation(t *testing.T) {
	p := New(10)
	p.Insert(0, []any{int64(100), "a"}) // before tuple 0
	p.Delete(3)                         // deletes stable 2 (rid 3 = sid 2 after insert)
	// Image now: ins, 0, 1, 3, 4, ..., 9
	rid, ok := p.SidToRid(0)
	if !ok || rid != 1 {
		t.Fatalf("SidToRid(0) = %d,%v", rid, ok)
	}
	if _, ok := p.SidToRid(2); ok {
		t.Fatal("deleted sid should report !ok")
	}
	rid, ok = p.SidToRid(5)
	if !ok || rid != 5 {
		t.Fatalf("SidToRid(5) = %d,%v", rid, ok)
	}
	loc, err := p.RidToSid(0)
	if err != nil || loc.Insert == nil {
		t.Fatalf("RidToSid(0) = %+v, %v", loc, err)
	}
	loc, err = p.RidToSid(3)
	if err != nil || loc.Insert != nil || loc.Sid != 3 {
		t.Fatalf("RidToSid(3) = %+v, %v", loc, err)
	}
	if _, err := p.RidToSid(p.Size()); err == nil {
		t.Fatal("out of range rid should fail")
	}
}

func TestCopyOnWriteIndependence(t *testing.T) {
	p := New(5)
	p.Append([]any{int64(1), "a"})
	p.Modify(0, []int{1}, []any{"m"})
	cp := p.CopyOnWrite()
	p.Delete(0)
	p.Append([]any{int64(2), "b"})
	ins, del, _ := cp.Counts()
	if ins != 1 || del != 0 {
		t.Fatalf("copy affected by original: ins=%d del=%d", ins, del)
	}
	rows := materialize(t, cp, stableImage(5))
	if len(rows) != 6 || rows[0][1].(string) != "m" {
		t.Fatalf("copy rows = %v", rows)
	}
}

func TestApplyTransConflicts(t *testing.T) {
	master := New(10)
	// Transaction A modifies tuple 3 (snapshot epoch 0) and commits at 1.
	txA := New(10)
	txA.Modify(3, []int{1}, []any{"A"})
	if err := ApplyTrans(master, txA.Entries(), 0, 1); err != nil {
		t.Fatal(err)
	}
	// Transaction B (snapshot 0, i.e. before A committed) also touches 3.
	txB := New(10)
	txB.Modify(3, []int{1}, []any{"B"})
	err := ApplyTrans(master, txB.Entries(), 0, 2)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
	// Transaction C with a fresh snapshot (epoch 1) succeeds.
	txC := New(10)
	txC.Modify(3, []int{0}, []any{int64(-3)})
	if err := ApplyTrans(master, txC.Entries(), 1, 2); err != nil {
		t.Fatal(err)
	}
	rows := materialize(t, master, stableImage(10))
	if rows[3][1].(string) != "A" || rows[3][0].(int64) != -3 {
		t.Fatalf("merged row = %v", rows[3])
	}
	// Concurrent inserts never conflict.
	txD, txE := New(10), New(10)
	txD.Append([]any{int64(100), "d"})
	txE.Append([]any{int64(101), "e"})
	if err := ApplyTrans(master, txD.Entries(), 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := ApplyTrans(master, txE.Entries(), 0, 4); err != nil {
		t.Fatal(err)
	}
	if master.Size() != 12 {
		t.Fatalf("size = %d", master.Size())
	}
}

func TestDeleteDeleteMerge(t *testing.T) {
	master := New(5)
	tx1 := New(5)
	tx1.Delete(2)
	if err := ApplyTrans(master, tx1.Entries(), 0, 1); err != nil {
		t.Fatal(err)
	}
	// A later snapshot deleting a *different* tuple is fine.
	tx2 := New(5)
	tx2.Delete(3) // in tx2's image (pre-commit of tx1) rid 3 = sid 3
	if err := ApplyTrans(master, tx2.Entries(), 1, 2); err != nil {
		t.Fatal(err)
	}
	rows := materialize(t, master, stableImage(5))
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestRandomOpsAgainstModel drives the PDT with random rid-based operations
// and compares the merged image against a plain slice model after each
// operation batch.
func TestRandomOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const stable = 50
	p := New(stable)
	model := make([][]any, stable)
	for i := range model {
		model[i] = []any{int64(i), "s" + itoa(i)}
	}
	img := stableImage(stable)
	next := int64(1000)
	for step := 0; step < 400; step++ {
		op := rng.Intn(4)
		size := int(p.Size())
		switch {
		case op == 0 || size == 0: // insert
			rid := rng.Intn(size + 1)
			row := []any{next, "n" + itoa(int(next))}
			next++
			if err := p.Insert(int64(rid), row); err != nil {
				t.Fatal(err)
			}
			model = append(model[:rid], append([][]any{row}, model[rid:]...)...)
		case op == 1: // delete
			rid := rng.Intn(size)
			if err := p.Delete(int64(rid)); err != nil {
				t.Fatal(err)
			}
			model = append(model[:rid], model[rid+1:]...)
		case op == 2: // modify
			rid := rng.Intn(size)
			v := "m" + itoa(step)
			if err := p.Modify(int64(rid), []int{1}, []any{v}); err != nil {
				t.Fatal(err)
			}
			row := append([]any(nil), model[rid]...)
			row[1] = v
			model[rid] = row
		case op == 3: // append
			row := []any{next, "a" + itoa(int(next))}
			next++
			p.Append(row)
			model = append(model, row)
		}
		if int(p.Size()) != len(model) {
			t.Fatalf("step %d: size %d != model %d", step, p.Size(), len(model))
		}
		if step%20 == 19 {
			rows := materialize(t, p, img)
			if len(rows) != len(model) {
				t.Fatalf("step %d: merged %d rows, model %d", step, len(rows), len(model))
			}
			for i := range rows {
				if rows[i][0] != model[i][0] || rows[i][1] != model[i][1] {
					t.Fatalf("step %d row %d: %v != %v", step, i, rows[i], model[i])
				}
			}
			// Translation invariants: RidToSid ∘ SidToRid = id.
			for s := int64(0); s < stable; s++ {
				if rid, ok := p.SidToRid(s); ok {
					loc, err := p.RidToSid(rid)
					if err != nil || loc.Insert != nil || loc.Sid != s {
						t.Fatalf("step %d: SidToRid(%d)=%d, RidToSid=%+v err=%v", step, s, rid, loc, err)
					}
				}
			}
		}
	}
}

func TestMemBytesGrowsAndTriggers(t *testing.T) {
	p := New(0)
	if p.MemBytes() != 0 {
		t.Fatalf("empty MemBytes = %d", p.MemBytes())
	}
	for i := 0; i < 100; i++ {
		p.Append([]any{int64(i), "some string value"})
	}
	if p.MemBytes() < 100*16 {
		t.Fatalf("MemBytes = %d, too small", p.MemBytes())
	}
}
