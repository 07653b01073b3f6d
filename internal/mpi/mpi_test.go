package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"vectorh/internal/vector"
)

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	b := vector.NewBatch(
		vector.FromInt64([]int64{-1, 2, 1 << 40}),
		vector.FromInt32([]int32{7, -8, 9}),
		vector.FromFloat64([]float64{1.5, -2.5, 0}),
		vector.FromString([]string{"", "abc", "日本"}),
		vector.FromBool([]bool{true, false, true}),
	)
	b.Sel = []int32{2, 0}
	got, err := DecodeBatch(EncodeBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Row(0)[0].(int64) != 1<<40 || got.Row(1)[3].(string) != "" {
		t.Fatalf("round trip = %v %v", got.Row(0), got.Row(1))
	}
	if _, err := DecodeBatch([]byte{1, 2}); err == nil {
		t.Fatal("garbage should fail to decode")
	}
}

// kindsBatch returns fuzzBatch's n-row batch over a fixed byte pattern,
// without a selection: strings of 0–8 bytes.
func kindsBatch(n int) *vector.Batch {
	data := make([]byte, 8*n)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	b, _ := fuzzBatch(data)
	return b
}

// TestAppendBatchReusesCapacity: encoding into a buffer that already holds
// the message allocates nothing, for every kind; a short buffer grows once.
func TestAppendBatchReusesCapacity(t *testing.T) {
	b := kindsBatch(1000)
	for c, v := range b.Vecs {
		one := vector.NewBatch(v)
		buf := EncodeBatch(one)
		if allocs := testing.AllocsPerRun(20, func() { buf = AppendBatch(buf[:0], one) }); allocs != 0 {
			t.Errorf("column %d (%v): AppendBatch into a large enough buffer allocated %.1f times", c, v.Kind(), allocs)
		}
	}
	prefix := []byte{7, 8, 9}
	var got []byte
	if allocs := testing.AllocsPerRun(20, func() { got = AppendBatch(prefix[:3:3], b) }); allocs != 1 {
		t.Errorf("AppendBatch onto a short buffer allocated %.1f times, want 1", allocs)
	}
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], EncodeBatch(b)) {
		t.Error("AppendBatch onto a prefix: the prefix or the message changed")
	}
}

// TestDecodeBatchAllocsIndependentOfRows: a decode costs a fixed number of
// allocations per column, not one per string value.
func TestDecodeBatchAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		wire := EncodeBatch(kindsBatch(n))
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeBatch(wire); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(10000); small != large {
		t.Errorf("DecodeBatch allocated %.1f times at 10 rows and %.1f at 10000", small, large)
	}
}

// fuzzBatch builds a batch of all five kinds from fuzzer bytes: one row per
// 8 bytes, and a selection of every row whose first byte is odd.
func fuzzBatch(data []byte) (b *vector.Batch, sel []int32) {
	n := len(data) / 8
	i64, i32 := make([]int64, n), make([]int32, n)
	f64, str, bl := make([]float64, n), make([]string, n), make([]bool, n)
	sel = []int32{}
	for r := 0; r < n; r++ {
		w := data[r*8 : r*8+8]
		u := binary.LittleEndian.Uint64(w)
		i64[r], i32[r], f64[r] = int64(u), int32(u), math.Float64frombits(u)
		str[r], bl[r] = string(w[:w[0]%9]), w[1]&1 == 1
		if w[0]&1 == 1 {
			sel = append(sel, int32(r))
		}
	}
	return vector.NewBatch(vector.FromInt64(i64), vector.FromInt32(i32), vector.FromFloat64(f64),
		vector.FromString(str), vector.FromBool(bl)), sel
}

// sameRows reports whether two batches hold the same live rows, floats
// compared bit for bit.
func sameRows(a, b *vector.Batch) bool {
	a, b = a.Compact(), b.Compact()
	if len(a.Vecs) != len(b.Vecs) || a.Len() != b.Len() {
		return false
	}
	for c, av := range a.Vecs {
		bv := b.Vecs[c]
		if av.Kind() != bv.Kind() {
			return false
		}
		for r := 0; r < a.Len(); r++ {
			x, y := av.Get(r), bv.Get(r)
			if av.Kind() == vector.Float64 {
				x, y = math.Float64bits(x.(float64)), math.Float64bits(y.(float64))
			}
			if x != y {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeBatch: (1) DecodeBatch of any bytes returns a batch or an error,
// never panics, and allocates at most a fixed multiple of the input in the
// least of three decodes of it — a column costs one kind byte of input and
// one vector header of memory, which is the multiple; anything a header
// claims beyond the bytes present is an error; (2) whatever decodes re-encodes to the same rows; (3) a batch of all
// five kinds round-trips, with and without a selection; (4) a decoded batch
// shares no memory with its input — the exchange recycles wire buffers right
// after the decode — so overwriting the input changes nothing the batch
// re-encodes to, and a round trip still re-encodes to the original message.
// The committed seeds include header claims of 2⁶¹ rows and 2⁴⁰ columns.
func FuzzDecodeBatch(f *testing.F) {
	b, sel := fuzzBatch([]byte("0123456789abcdef\x01\x02\x03\x04\x05\x06\x07\x08\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8"))
	f.Add(EncodeBatch(b))
	b.Sel = sel
	f.Add(EncodeBatch(b))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data) // the engine's bytes must not be modified
		// TotalAlloc counts every goroutine of the process, so one decode can
		// be charged another's allocations; an over-allocating decode
		// over-allocates every time, so the least of three is held to the bound.
		var got *vector.Batch
		var err error
		least := uint64(math.MaxUint64)
		for range 3 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			got, err = DecodeBatch(in)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		if least > uint64(256*len(data)+4096) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), least)
		}
		if err == nil {
			canon := EncodeBatch(got)
			again, err := DecodeBatch(canon)
			if err != nil || !sameRows(got, again) {
				t.Fatalf("re-encoding a decoded batch: %v", err)
			}
			overwrite(in)
			if !bytes.Equal(EncodeBatch(got), canon) {
				t.Fatal("overwriting the input changed the decoded batch")
			}
		}
		src, sel := fuzzBatch(data)
		for _, s := range [][]int32{nil, sel} {
			src.Sel = s
			wire := EncodeBatch(src)
			orig := bytes.Clone(wire)
			out, err := DecodeBatch(wire)
			if err != nil || !sameRows(src, out) {
				t.Fatalf("round trip (sel %v): %v", s, err)
			}
			overwrite(wire)
			if !bytes.Equal(EncodeBatch(out), orig) {
				t.Fatalf("round trip (sel %v): overwriting the wire bytes changed the decoded batch", s)
			}
		}
	})
}

// TestDecodeBatchesBackToBack: batches appended into one message decode
// back in order, and a message cut anywhere but between two batches is an
// error, not fewer rows.
func TestDecodeBatchesBackToBack(t *testing.T) {
	src, sel := fuzzBatch([]byte("0123456789abcdef\x01\x02\x03\x04\x05\x06\x07\x08"))
	selected := &vector.Batch{Vecs: src.Vecs, Sel: sel}
	batches := []*vector.Batch{src, selected, src}
	var msg []byte
	ends := map[int]int{0: 0} // message length -> whole batches in it
	for i, b := range batches {
		msg = AppendBatch(msg, b)
		ends[len(msg)] = i + 1
	}
	for cut := 0; cut <= len(msg); cut++ {
		got, err := DecodeBatches(msg[:cut])
		whole, boundary := ends[cut]
		if !boundary {
			if err == nil {
				t.Fatalf("cut at %d of %d bytes decoded %d batches", cut, len(msg), len(got))
			}
			continue
		}
		if err != nil || len(got) != whole {
			t.Fatalf("cut at %d: %d batches, %v; want %d", cut, len(got), err, whole)
		}
		for i, b := range got {
			if !sameRows(b, batches[i]) {
				t.Fatalf("cut at %d: batch %d differs", cut, i)
			}
		}
	}
}

// overwrite fills b with a byte no encoding of the fuzz batches relies on.
func overwrite(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}
