package exec

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vectorh/internal/compress"
	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// collidingKeys returns n distinct int64 keys that all land in the same
// bucket of a directory with the given mask — adversarial input that turns
// every lookup into a chain walk.
func collidingKeys(n int, mask uint64) []int64 {
	target := vector.HashInt64(0) & mask
	keys := make([]int64, 0, n)
	for k := int64(1); len(keys) < n; k++ {
		if vector.HashInt64(k)&mask == target {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestHashTableAdversarialCollisions(t *testing.T) {
	// 40 distinct keys in one bucket of the initial 64-slot directory: under
	// the 3/4 load limit, so everything stays chained in a single bucket.
	keys := collidingKeys(40, minBuckets-1)
	kc := []*vector.Vec{vector.FromInt64(keys)}
	ht := NewHashTable([]vector.Kind{vector.Int64}, nil)
	ids := make([]int32, len(keys))
	ht.FindOrInsert(kc, len(keys), ids)
	seen := map[int32]bool{}
	for i, id := range ids {
		if id != int32(i) {
			t.Fatalf("insertion ids not sequential: ids[%d]=%d", i, id)
		}
		seen[id] = true
	}
	if len(seen) != len(keys) {
		t.Fatalf("colliding keys merged: %d ids for %d keys", len(seen), len(keys))
	}
	// Re-probing returns the same stable ids.
	again := make([]int32, len(keys))
	ht.FindOrInsert(kc, len(keys), again)
	for i := range again {
		if again[i] != ids[i] {
			t.Fatalf("id for key %d changed: %d -> %d", keys[i], ids[i], again[i])
		}
	}
	// Force a directory rebuild and verify chains survive the rehash.
	more := make([]int64, 200)
	for i := range more {
		more[i] = int64(1_000_000 + i)
	}
	ht.FindOrInsert([]*vector.Vec{vector.FromInt64(more)}, len(more), make([]int32, len(more)))
	ht.FindOrInsert(kc, len(keys), again)
	for i := range again {
		if again[i] != ids[i] {
			t.Fatalf("after grow, id for key %d changed: %d -> %d", keys[i], ids[i], again[i])
		}
	}
}

func TestHashTableDuplicateHeavyBuild(t *testing.T) {
	// 3000 build rows over only 3 distinct keys, then probe each key once:
	// ProbeJoin must emit every duplicate, grouped by probe row in build
	// insertion order.
	n := 3000
	build := make([]int64, n)
	for i := range build {
		build[i] = int64(i % 3)
	}
	ht := NewHashTable([]vector.Kind{vector.Int64}, nil)
	ht.InsertBatch([]*vector.Vec{vector.FromInt64(build)}, n)
	probe := []*vector.Vec{vector.FromInt64([]int64{0, 1, 2, 99})}
	ps, bs := ht.ProbeJoin(probe, 4, nil, nil, false)
	if len(ps) != n {
		t.Fatalf("pairs = %d, want %d", len(ps), n)
	}
	lastProbe, lastBuild := int32(-1), int32(-1)
	for i := range ps {
		if ps[i] < lastProbe {
			t.Fatalf("pairs not grouped by probe row at %d: %v", i, ps[:i+1])
		}
		if ps[i] != lastProbe {
			lastBuild = -1
		}
		if bs[i] <= lastBuild {
			t.Fatalf("matches for probe row %d not in insertion order", ps[i])
		}
		if build[bs[i]] != []int64{0, 1, 2, 99}[ps[i]] {
			t.Fatalf("pair (%d,%d) joins key %d with %d", ps[i], bs[i], ps[i], build[bs[i]])
		}
		lastProbe, lastBuild = ps[i], bs[i]
	}
}

func TestHashTableEmptyBuildAndProbe(t *testing.T) {
	ht := NewHashTable([]vector.Kind{vector.Int64}, nil)
	probe := []*vector.Vec{vector.FromInt64([]int64{1, 2})}
	if ps, _ := ht.ProbeJoin(probe, 2, nil, nil, false); len(ps) != 0 {
		t.Fatalf("inner probe of empty table: %v", ps)
	}
	ps, bs := ht.ProbeJoin(probe, 2, nil, nil, true)
	if len(ps) != 2 || bs[0] != -1 || bs[1] != -1 {
		t.Fatalf("outer probe of empty table: ps=%v bs=%v", ps, bs)
	}
	if sel := ht.ProbeExists(probe, 2, true, nil); len(sel) != 0 {
		t.Fatalf("semi on empty table: %v", sel)
	}
	if sel := ht.ProbeExists(probe, 2, false, nil); len(sel) != 2 {
		t.Fatalf("anti on empty table: %v", sel)
	}
	// Empty probe batches are no-ops.
	ht.InsertBatch([]*vector.Vec{vector.FromInt64(nil)}, 0)
	if ht.Len() != 0 {
		t.Fatalf("empty insert grew table to %d", ht.Len())
	}
}

func TestHashTableMultiColumnNearMisses(t *testing.T) {
	ht := NewHashTable([]vector.Kind{vector.String, vector.Int32}, nil)
	bk := []*vector.Vec{
		vector.FromString([]string{"a", "a", "b"}),
		vector.FromInt32([]int32{1, 2, 1}),
	}
	ht.InsertBatch(bk, 3)
	pk := []*vector.Vec{
		vector.FromString([]string{"a", "a", "b", "b"}),
		vector.FromInt32([]int32{1, 2, 1, 2}),
	}
	ps, bs := ht.ProbeJoin(pk, 4, nil, nil, false)
	if len(ps) != 3 {
		t.Fatalf("near-miss probe pairs = %v/%v", ps, bs)
	}
	want := map[int32]int32{0: 0, 1: 1, 2: 2}
	for i := range ps {
		if want[ps[i]] != bs[i] {
			t.Fatalf("pair %d = (%d,%d)", i, ps[i], bs[i])
		}
	}
}

func TestHashJoinKindMismatchNoMatch(t *testing.T) {
	// A kind-skewed equi-join (int32 probe key against an int64 build key)
	// is legal; like the former serialized keys it must match nothing —
	// and not panic in the typed compare loops.
	build := vector.NewBatch(vector.FromInt64([]int64{1, 2}))
	probeRows := []int32{1, 2, 3}
	mk := func(jt JoinType) *HashJoin {
		return &HashJoin{
			Build:     &BatchSource{Batches: []*vector.Batch{build}},
			Probe:     &BatchSource{Batches: []*vector.Batch{vector.NewBatch(vector.FromInt32(probeRows))}},
			BuildKeys: []expr.Expr{expr.Col(0, vector.Int64)},
			ProbeKeys: []expr.Expr{expr.Col(0, vector.Int32)},
			Type:      jt,
		}
	}
	for jt, wantRows := range map[JoinType]int{Inner: 0, Semi: 0, Anti: 3, LeftOuter: 3} {
		rows, err := Collect(mk(jt))
		if err != nil || len(rows) != wantRows {
			t.Fatalf("type %d: rows=%v err=%v, want %d rows", jt, rows, err, wantRows)
		}
		if jt == LeftOuter {
			for _, r := range rows {
				if r[len(r)-1].(bool) {
					t.Fatalf("left outer row matched across kinds: %v", r)
				}
			}
		}
	}
}

func TestHashTableFloatBitwiseKeys(t *testing.T) {
	// Float keys hash and compare by bit pattern, like the former
	// byte-serialized keys: NaN equals itself (one group), -0.0 and +0.0
	// stay distinct.
	nan := math.NaN()
	vals := []float64{nan, nan, 0.0, math.Copysign(0, -1), 1.5}
	ht := NewHashTable([]vector.Kind{vector.Float64}, nil)
	ids := make([]int32, len(vals))
	ht.FindOrInsert([]*vector.Vec{vector.FromFloat64(vals)}, len(vals), ids)
	if ids[0] != ids[1] {
		t.Fatalf("NaN keys split into groups %d and %d", ids[0], ids[1])
	}
	if ids[2] == ids[3] {
		t.Fatalf("+0.0 and -0.0 merged into group %d", ids[2])
	}
	if ht.Len() != 4 {
		t.Fatalf("groups = %d, want 4", ht.Len())
	}
	// Probing again (vectorized path and chain walk) agrees.
	again := make([]int32, len(vals))
	ht.FindOrInsert([]*vector.Vec{vector.FromFloat64(vals)}, len(vals), again)
	for i := range again {
		if again[i] != ids[i] {
			t.Fatalf("float id %d changed: %d -> %d", i, ids[i], again[i])
		}
	}
}

func TestHashAggrAvgEmptyInput(t *testing.T) {
	// AVG over zero rows: the engine has no NULLs; the global empty group
	// is defined to emit 0 (not NaN). This is load-bearing for Q13-style
	// outer-join aggregations and asserted here explicitly.
	op := &HashAggr{Child: &BatchSource{}, Aggs: []AggSpec{
		{Func: AggAvg, Arg: expr.Col(0, vector.Float64)},
		{Func: AggCountStar},
	}}
	rows, err := Collect(op)
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if rows[0][0].(float64) != 0 || rows[0][1].(int64) != 0 {
		t.Fatalf("empty AVG row = %v, want [0 0]", rows[0])
	}
}

func TestHashAggrDistinctStateLazy(t *testing.T) {
	b := vector.NewBatch(
		vector.FromInt64([]int64{1, 1, 2}),
		vector.FromInt64([]int64{5, 5, 7}),
	)
	op := &HashAggr{
		Child: &BatchSource{Batches: []*vector.Batch{b}},
		Keys:  []expr.Expr{expr.Col(0, vector.Int64)},
		Aggs: []AggSpec{
			{Func: AggSum, Arg: expr.Col(1, vector.Int64)},
			{Func: AggCountDistinct, Arg: expr.Col(1, vector.Int64)},
		},
	}
	if _, err := Collect(op); err != nil {
		t.Fatal(err)
	}
	if op.distinct[0] != nil {
		t.Fatal("SUM spec allocated distinct state")
	}
	if op.distinct[1] == nil {
		t.Fatal("COUNT(DISTINCT) spec did not allocate its dedup table")
	}
}

func TestHashAggrDistinctAcrossBatches(t *testing.T) {
	// The same (group, value) pair arriving in different batches must count
	// once; new values keep counting.
	b1 := vector.NewBatch(vector.FromInt64([]int64{1, 1}), vector.FromString([]string{"a", "b"}))
	b2 := vector.NewBatch(vector.FromInt64([]int64{1, 2}), vector.FromString([]string{"a", "a"}))
	op := &HashAggr{
		Child: &BatchSource{Batches: []*vector.Batch{b1, b2}},
		Keys:  []expr.Expr{expr.Col(0, vector.Int64)},
		Aggs:  []AggSpec{{Func: AggCountDistinct, Arg: expr.Col(1, vector.String)}},
	}
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range rows {
		got[r[0].(int64)] = r[1].(int64)
	}
	if got[1] != 2 || got[2] != 1 {
		t.Fatalf("distinct counts = %v", got)
	}
}

func TestHashJoinSelectiveProbeBatches(t *testing.T) {
	// Probe batches carrying selection vectors must join only live rows and
	// emit their physical values.
	build := vector.NewBatch(
		vector.FromInt64([]int64{1, 2}),
		vector.FromString([]string{"one", "two"}),
	)
	probe := &vector.Batch{
		Vecs: []*vector.Vec{vector.FromInt64([]int64{9, 2, 9, 1})},
		Sel:  []int32{1, 3},
	}
	j := &HashJoin{
		Build:     &BatchSource{Batches: []*vector.Batch{build}},
		Probe:     &BatchSource{Batches: []*vector.Batch{probe}},
		BuildKeys: []expr.Expr{expr.Col(0, vector.Int64)},
		ProbeKeys: []expr.Expr{expr.Col(0, vector.Int64)},
		Type:      Inner,
	}
	rows, err := Collect(j)
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if rows[0][2].(string) != "two" || rows[1][2].(string) != "one" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestDictProbesMatchValueProbes probes the same string keys as dictionary
// codes and as values, over dictionaries that change between batches (the
// same strings under other codes, strings absent from the table) and across
// a Reset: join pairs and group ids must agree with a table fed values.
func TestDictProbesMatchValueProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	words := []string{"", "A", "F", "N", "O", "R", "AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "REG AIR", "FOB"}
	build := NewHashTable([]vector.Kind{vector.String}, nil)
	byCodes := NewHashTable([]vector.Kind{vector.String, vector.Int64}, nil)
	byValues := NewHashTable([]vector.Kind{vector.String, vector.Int64}, nil)
	fill := func() {
		build.Reset()
		keys := make([]string, 40)
		for i := range keys {
			keys[i] = words[rng.Intn(len(words)-3)] // the last three never build
		}
		build.InsertBatch([]*vector.Vec{vector.FromString(keys)}, len(keys))
	}
	fill()
	var ps, bs, wantPs, wantBs []int32
	var dict *compress.StrDict
	for round := 0; round < 60; round++ {
		if round == 30 {
			// Same dictionary before and after the Reset.
			fill()
			byCodes.Reset()
			byValues.Reset()
		} else {
			dict = &compress.StrDict{}
			for _, p := range rng.Perm(len(words))[:2+rng.Intn(len(words)-2)] {
				dict.Values = append(dict.Values, words[p])
			}
		}
		n := 1 + rng.Intn(300)
		codes, vals, ints := make([]uint32, n), make([]string, n), make([]int64, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(len(dict.Values)))
			vals[i], ints[i] = dict.Values[codes[i]], int64(rng.Intn(3))
		}
		coded, plain := vector.FromDictCodes(codes, dict), vector.FromString(vals)

		ps, bs = build.ProbeJoin([]*vector.Vec{coded}, n, ps[:0], bs[:0], false)
		wantPs, wantBs = build.ProbeJoin([]*vector.Vec{plain}, n, wantPs[:0], wantBs[:0], false)
		if !slices.Equal(ps, wantPs) || !slices.Equal(bs, wantBs) {
			t.Fatalf("round %d: join by codes matched %d pairs, by values %d", round, len(ps), len(wantPs))
		}

		got, want := make([]int32, n), make([]int32, n)
		byCodes.FindOrInsert([]*vector.Vec{coded, vector.FromInt64(ints)}, n, got)
		byValues.FindOrInsert([]*vector.Vec{plain, vector.FromInt64(ints)}, n, want)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: group ids by codes %v, by values %v", round, got, want)
		}
	}
}

// TestStringBytesLimitIsAnError: a join's build side and a sort's input
// that would take a string vector past compress.MaxBytes (4 GiB) fail the
// query with vector.ErrStringBytes; they do not panic. The string column is
// 4096 copies of one 1 MiB value in dictionary form, 4 GiB as strings in
// 1 MiB of memory.
func TestStringBytesLimitIsAnError(t *testing.T) {
	const n = 4096
	input := func() Operator {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i)
		}
		big := &compress.StrDict{Values: []string{strings.Repeat("x", 1<<20)}}
		return &BatchSource{Batches: []*vector.Batch{
			vector.NewBatch(vector.FromInt64(keys), vector.FromDictCodes(make([]uint32, n), big)),
		}}
	}
	key := []expr.Expr{expr.Col(0, vector.Int64)}
	ops := map[string]Operator{
		"hash join": &HashJoin{Build: input(), Probe: src(10, 10), BuildKeys: key, ProbeKeys: key, Type: Inner},
		"sort":      &Sort{Child: input(), Keys: []SortKey{{Expr: key[0]}}},
	}
	for name, op := range ops {
		if _, err := Collect(op); !errors.Is(err, vector.ErrStringBytes) {
			t.Errorf("%s over 4 GiB of strings: err = %v", name, err)
		}
	}
}
