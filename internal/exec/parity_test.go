// Parity tests: the vectorized HashTable-backed join must produce exactly
// the rows (and row order) of the previous row-at-a-time map[string]
// implementation, on real TPC-H data at SF 0.01. The reference
// implementation below is a faithful copy of the old algorithm: per-row
// byte-serialized keys into a Go map, probe rows in order, matches in build
// insertion order.
package exec_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vectorh/internal/exec"
	"vectorh/internal/expr"
	"vectorh/internal/tpch"
	"vectorh/internal/vector"
)

// refKey serializes one row's key columns the way the old implementation did.
func refKey(cols []*vector.Vec, r int) string {
	var dst []byte
	for _, v := range cols {
		switch v.Kind() {
		case vector.Int64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int64s()[r]))
		case vector.Int32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Int32s()[r]))
		case vector.Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float64s()[r]))
		case vector.String:
			s := v.Strings()[r]
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return string(dst)
}

// refJoin is the old row-at-a-time hash join over dense single-batch inputs.
func refJoin(build, probe *vector.Batch, buildKey, probeKey int, jt exec.JoinType) [][]any {
	table := map[string][]int32{}
	bk := []*vector.Vec{build.Col(buildKey)}
	for r := 0; r < build.Len(); r++ {
		k := refKey(bk, r)
		table[k] = append(table[k], int32(r))
	}
	pk := []*vector.Vec{probe.Col(probeKey)}
	var out [][]any
	emit := func(pr int, br int32, matched bool) {
		row := probe.Row(pr)
		if jt == exec.Inner || jt == exec.LeftOuter {
			if br < 0 {
				for _, v := range build.Vecs {
					switch v.Kind() {
					case vector.Int64:
						row = append(row, int64(0))
					case vector.Int32:
						row = append(row, int32(0))
					case vector.Float64:
						row = append(row, float64(0))
					case vector.String:
						row = append(row, "")
					case vector.Bool:
						row = append(row, false)
					}
				}
			} else {
				row = append(row, build.Row(int(br))...)
			}
		}
		if jt == exec.LeftOuter {
			row = append(row, matched)
		}
		out = append(out, row)
	}
	for r := 0; r < probe.Len(); r++ {
		rows := table[refKey(pk, r)]
		switch jt {
		case exec.Inner:
			for _, br := range rows {
				emit(r, br, true)
			}
		case exec.LeftOuter:
			if len(rows) == 0 {
				emit(r, -1, false)
			} else {
				for _, br := range rows {
					emit(r, br, true)
				}
			}
		case exec.Semi:
			if len(rows) > 0 {
				out = append(out, probe.Row(r))
			}
		case exec.Anti:
			if len(rows) == 0 {
				out = append(out, probe.Row(r))
			}
		}
	}
	return out
}

// chunked splits a dense batch into MaxSize slices so operators see a
// realistic batch stream.
func chunked(b *vector.Batch) exec.Operator {
	var out []*vector.Batch
	for lo := 0; lo < b.Len(); lo += vector.MaxSize {
		hi := lo + vector.MaxSize
		if hi > b.Len() {
			hi = b.Len()
		}
		sl := &vector.Batch{Vecs: make([]*vector.Vec, len(b.Vecs))}
		for i, v := range b.Vecs {
			sl.Vecs[i] = v.Slice(lo, hi)
		}
		out = append(out, sl)
	}
	return &exec.BatchSource{Batches: out}
}

func TestHashJoinParityTPCH(t *testing.T) {
	d := tpch.Generate(0.01, 9)
	customer := d.Tables["customer"]
	orders := d.Tables["orders"]
	custKeyInOrders := tpch.OrdersSchema.Index("o_custkey")
	custKey := tpch.CustomerSchema.Index("c_custkey")
	if custKeyInOrders < 0 || custKey < 0 {
		t.Fatal("schema columns not found")
	}
	kind := customer.Col(custKey).Kind()
	for _, jt := range []exec.JoinType{exec.Inner, exec.LeftOuter, exec.Semi, exec.Anti} {
		jt := jt
		t.Run(fmt.Sprintf("type=%d", jt), func(t *testing.T) {
			// Build on customer, probe with orders — the Q13 shape. A
			// third of customers have no orders, so Anti/LeftOuter have
			// real work; duplicate o_custkey values exercise chains.
			j := &exec.HashJoin{
				Build:     exec.NewBuildSide(chunked(customer), []expr.Expr{expr.Col(custKey, kind)}, nil, 1),
				Probe:     chunked(orders),
				ProbeKeys: []expr.Expr{expr.Col(custKeyInOrders, kind)},
				Type:      jt,
			}
			got, err := exec.Collect(j)
			if err != nil {
				t.Fatal(err)
			}
			want := refJoin(customer, orders, custKey, custKeyInOrders, jt)
			if len(got) != len(want) {
				t.Fatalf("rows = %d, reference = %d", len(got), len(want))
			}
			for i := range got {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("row %d:\n got %v\nwant %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestHashAggrParityTPCH(t *testing.T) {
	// GROUP BY o_custkey over orders: group count and per-group COUNT(*)
	// must match a map-based reference, SF 0.01.
	d := tpch.Generate(0.01, 9)
	orders := d.Tables["orders"]
	ck := tpch.OrdersSchema.Index("o_custkey")
	kind := orders.Col(ck).Kind()
	op := &exec.HashAggr{
		Child: chunked(orders),
		Keys:  []expr.Expr{expr.Col(ck, kind)},
		Aggs:  []exec.AggSpec{{Func: exec.AggCountStar}},
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int64]int64{}
	keys := orders.Col(ck).Int64s()
	for _, k := range keys {
		ref[k]++
	}
	if len(rows) != len(ref) {
		t.Fatalf("groups = %d, reference = %d", len(rows), len(ref))
	}
	for _, r := range rows {
		if ref[r[0].(int64)] != r[1].(int64) {
			t.Fatalf("group %v count %v, want %d", r[0], r[1], ref[r[0].(int64)])
		}
	}
}
