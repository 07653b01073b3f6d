package exec

import (
	"errors"
	"fmt"
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
	if sel := ht.probeExists(ht.pool, probe, 2, true, nil); len(sel) != 0 {
		t.Fatalf("semi on empty table: %v", sel)
	}
	if sel := ht.probeExists(ht.pool, probe, 2, false, nil); len(sel) != 2 {
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
			Build:     NewBuildSide(&BatchSource{Batches: []*vector.Batch{build}}, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1),
			Probe:     &BatchSource{Batches: []*vector.Batch{vector.NewBatch(vector.FromInt32(probeRows))}},
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

// TestHashAggrDistinctStateLazy: only a COUNT(DISTINCT) spec keeps a dedup
// table, and only in HashAggr; OrderedAggr counts the same spec from runs.
func TestHashAggrDistinctStateLazy(t *testing.T) {
	b := vector.NewBatch(
		vector.FromInt64([]int64{1, 1, 2}),
		vector.FromInt64([]int64{5, 5, 7}),
	)
	aggs := []AggSpec{
		{Func: AggSum, Arg: expr.Col(1, vector.Int64)},
		{Func: AggCountDistinct, Arg: expr.Col(1, vector.Int64)},
	}
	op := &HashAggr{
		Child: &BatchSource{Batches: []*vector.Batch{b}},
		Keys:  []expr.Expr{expr.Col(0, vector.Int64)},
		Aggs:  aggs,
	}
	if _, err := Collect(op); err != nil {
		t.Fatal(err)
	}
	if _, ok := op.accs[0].(*distinctTable); ok {
		t.Fatal("SUM spec allocated distinct state")
	}
	if dt, ok := op.accs[1].(*distinctTable); !ok || dt.table.Len() != 2 {
		t.Fatalf("COUNT(DISTINCT) spec's state is %T, want a dedup table of 2 pairs", op.accs[1])
	}
	ordered := &OrderedAggr{Child: &BatchSource{Batches: []*vector.Batch{b}}, Key: expr.Col(0, vector.Int64), Aggs: aggs}
	if _, err := Collect(ordered); err != nil {
		t.Fatal(err)
	}
	if _, ok := ordered.accs[1].(*distinctRuns[int64]); !ok {
		t.Fatalf("ordered COUNT(DISTINCT) spec's state is %T, want runs", ordered.accs[1])
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
		Build:     NewBuildSide(&BatchSource{Batches: []*vector.Batch{build}}, []expr.Expr{expr.Col(0, vector.Int64)}, nil, 1),
		Probe:     &BatchSource{Batches: []*vector.Batch{probe}},
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

// TestStringBytesLimitIsAnError: a join's build side, a sort's input and a
// group-by's keys that would take a string vector past compress.MaxBytes
// (4 GiB) fail the query with vector.ErrStringBytes; they do not panic. For
// the join and the sort the string column is 4096 copies of one 1 MiB value
// in dictionary form, 4 GiB as strings in 1 MiB of memory. The group-by's
// key has one value, so every batch takes the dense group-id path, and that
// value is MaxBytes+1 bytes of mapped, never-read memory; its dictionary
// hash is memoized up front (a stand-in: the dictionary meets no other
// table), so the insert is reached without reading it.
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
		"hash join": &HashJoin{Build: NewBuildSide(input(), key, nil, 1), Probe: src(10, 10), ProbeKeys: key, Type: Inner},
		"sort":      &Sort{Child: input(), Keys: []SortKey{{Expr: key[0]}}},
	}
	if value, ok := hugeString(t, compress.MaxBytes+1); ok {
		huge := &compress.StrDict{Values: []string{value}}
		huge.CodeHashes(func(string) uint64 { return 1 })
		ops["hash aggr, small-domain key"] = &HashAggr{
			Child: &BatchSource{Batches: []*vector.Batch{vector.NewBatch(vector.FromDictCodes(make([]uint32, vector.MaxSize), huge))}},
			Keys:  []expr.Expr{expr.Col(0, vector.String)},
			Aggs:  []AggSpec{{Func: AggCountStar}},
		}
		ops["hash aggr, COUNT(DISTINCT)"] = &HashAggr{
			Child: &BatchSource{Batches: []*vector.Batch{vector.NewBatch(vector.FromInt64(make([]int64, vector.MaxSize)),
				vector.FromDictCodes(make([]uint32, vector.MaxSize), huge))}},
			Keys: []expr.Expr{expr.Col(0, vector.Int64)},
			Aggs: []AggSpec{{Func: AggCountDistinct, Arg: expr.Col(1, vector.String)}},
		}
	}
	for name, op := range ops {
		if _, err := Collect(op); !errors.Is(err, vector.ErrStringBytes) {
			t.Errorf("%s over 4 GiB of strings: err = %v", name, err)
		}
	}
}

// TestDenseFindOrInsert: batches of Q01's and S3's keys, dictionary-coded
// as a scan of their PDICT blocks leaves them, and of a 7-group integer key
// take the dense path, whose ids equal a hashed table's, and a warm table
// resolves one with zero allocations. Materialized strings take the hashed
// path.
func TestDenseFindOrInsert(t *testing.T) {
	const n = vector.MaxSize
	flags, statuses, modes := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	years, groups := make([]int32, n), make([]int64, n)
	for i := range n {
		flags[i], statuses[i], modes[i] = uint32(i/7%3), uint32(i/5%2), uint32(i*5%7)
		years[i], groups[i] = int32(1992+i%7), int64(i%7)-3
	}
	flagDict := &compress.StrDict{Values: []string{"N", "R", "A"}}
	statusDict := &compress.StrDict{Values: []string{"F", "O"}}
	modeDict := &compress.StrDict{Values: []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}}
	materialized := make([]string, n)
	for i, c := range statuses {
		materialized[i] = statusDict.Values[c]
	}
	if denseSlots([]*vector.Vec{vector.FromString(materialized)}, make([]int32, n), n/denseRowsPerSlot) != 0 {
		t.Error("a materialized string key takes the dense path")
	}
	for name, cols := range map[string][]*vector.Vec{
		"Q01":      {vector.FromDictCodes(flags, flagDict), vector.FromDictCodes(statuses, statusDict)},
		"S3":       {vector.FromDictCodes(modes, modeDict), vector.FromInt32(years)},
		"7 groups": {vector.FromInt64(groups)},
	} {
		if denseSlots(cols, make([]int32, n), n/denseRowsPerSlot) == 0 {
			t.Errorf("%s: batch does not take the dense path", name)
			continue
		}
		kinds := make([]vector.Kind, len(cols))
		for i, c := range cols {
			kinds[i] = c.Kind()
		}
		dense, hashed := NewHashTable(kinds, nil), NewHashTable(kinds, nil)
		got, want := make([]int32, n), make([]int32, n)
		if err := dense.FindOrInsert(cols, n, got); err != nil {
			t.Fatal(err)
		}
		if err := hashed.findOrInsertHashed(cols, n, want); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: dense ids differ from hashed ids", name)
		}
		if a := testing.AllocsPerRun(20, func() { _ = dense.FindOrInsert(cols, n, got) }); a != 0 {
			t.Errorf("%s: a warm dense FindOrInsert allocates %.1f objects", name, a)
		}
	}
}

// findOrInsertLayouts are FuzzFindOrInsert's key layouts: Q01's two strings,
// S3's string and year, a COUNT(DISTINCT) table's group and value, and more.
var findOrInsertLayouts = [][]vector.Kind{
	{vector.String},
	{vector.Int64},
	{vector.String, vector.String},
	{vector.String, vector.Int32},
	{vector.Int32, vector.Int64, vector.Bool},
	{vector.Bool, vector.String, vector.Int64},
	{vector.Int32, vector.Float64},
}

// fuzzKeyCol generates one batch's key column of the given kind. mode picks
// the case: for strings a fresh small dictionary, at most 16 distinct
// materialized values, more than 16, or a large dictionary; for integers a
// narrow range, a range straddling the dense threshold, values at the ends
// of the kind's range (both ends, or one end and zero, in one batch, or one
// end only), or a wide range; for bools one constant or random values;
// floats always hash.
func fuzzKeyCol(rng *rand.Rand, kind vector.Kind, mode, n int) *vector.Vec {
	// "", one-byte words, and words sharing their first byte and their
	// length modulo 8 with others: "A" and "AAAAAAAAA", "Ab" and "Abxxxxxxxx".
	words := make([]string, 40)
	for i := range words {
		switch {
		case i == 0:
		case i == 25:
			words[i] = strings.Repeat("A", 9)
		case i < 25:
			words[i] = string(rune('A' + i - 1))
		default:
			words[i] = string(rune('A'+i%3)) + string(rune('a'+i%5)) + strings.Repeat("x", i%2*8)
		}
	}
	pick := func(width int) func() int64 { // a small base shared across batches, plus [0, width)
		base := int64(rng.Intn(7) - 3)
		return func() int64 { return base + int64(rng.Intn(max(width, 1))) }
	}
	switch kind {
	case vector.String:
		if mode == 0 || mode == 3 {
			dict := &compress.StrDict{}
			size := 1 + rng.Intn(8)
			if mode == 3 {
				size = len(words)
			}
			for _, p := range rng.Perm(len(words))[:size] {
				dict.Values = append(dict.Values, words[p])
			}
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(rng.Intn(size))
			}
			return vector.FromDictCodes(codes, dict)
		}
		distinct := 1 + rng.Intn(16)
		if mode == 2 {
			distinct = 17 + rng.Intn(len(words)-16)
		}
		pool := rng.Perm(len(words))[:distinct]
		vals := make([]string, n)
		for i := range vals {
			vals[i] = words[pool[rng.Intn(distinct)]]
			if i > 0 && rng.Intn(2) == 0 {
				vals[i] = vals[i-1] // runs
			}
		}
		return vector.FromString(vals)
	case vector.Int64, vector.Int32:
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if kind == vector.Int32 {
			lo, hi = math.MinInt32, math.MaxInt32
		}
		var next func() int64
		switch mode {
		case 0:
			next = pick(1 + rng.Intn(8))
		case 1:
			next = pick(n/denseRowsPerSlot + rng.Intn(5) - 2)
		case 2:
			ends := [][]int64{{lo, lo + 1, hi - 1, hi}, {lo, 0}, {lo, lo + 1, lo + 3}, {hi - 2, hi}}[rng.Intn(4)]
			next = func() int64 { return ends[rng.Intn(len(ends))] }
		default:
			next = func() int64 { return lo/2 + rng.Int63n(hi) }
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = next()
		}
		if kind == vector.Int64 {
			return vector.FromInt64(vals)
		}
		v32 := make([]int32, n)
		for i, x := range vals {
			v32[i] = int32(x)
		}
		return vector.FromInt32(v32)
	case vector.Float64:
		set := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, math.Inf(1)}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = set[rng.Intn(len(set))]
		}
		return vector.FromFloat64(vals)
	default:
		c := rng.Intn(2) == 0
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = c
			if mode != 0 {
				vals[i] = rng.Intn(2) == 0
			}
		}
		return vector.FromBool(vals)
	}
}

// fuzzModelKey renders row r of cols as one comparable value.
func fuzzModelKey(cols []*vector.Vec, r int) string {
	var b strings.Builder
	for _, c := range cols {
		fmt.Fprintf(&b, "%q|", fmt.Sprint(c.Get(r)))
	}
	return b.String()
}

// FuzzFindOrInsert is a differential against a map of key values: every
// row's id must be its key's first-occurrence id across all batches, and the
// table's stored keys must be the model's. Four bytes cut each batch: its row
// count (1 to 1100, the dense threshold on both sides), a mode per key column
// and a value seed; one table sees every batch, so dense and hashed batches
// insert into and find each other's keys.
func FuzzFindOrInsert(f *testing.F) {
	f.Add([]byte{0, 4, 5, 1, 40, 0, 0, 2, 0, 4, 9, 3}, uint8(2))
	f.Add([]byte{0, 4, 0, 1, 0, 4, 1, 2, 0, 4, 2, 3, 30, 0, 0, 4, 0, 4, 3, 5}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, layout uint8) {
		kinds := findOrInsertLayouts[int(layout)%len(findOrInsertLayouts)]
		ht := NewHashTable(kinds, nil)
		model := map[string]int32{}
		for b := 0; b+3 < len(data) && b < 64; b += 4 {
			n := 1 + (int(data[b])|int(data[b+1])<<8)%1100
			rng := rand.New(rand.NewSource(int64(data[b+3])<<8 | int64(b)))
			cols := make([]*vector.Vec, len(kinds))
			for c, k := range kinds {
				cols[c] = fuzzKeyCol(rng, k, int(data[b+2]>>(2*c))&3, n)
			}
			got := make([]int32, n)
			if err := ht.FindOrInsert(cols, n, got); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				key := fuzzModelKey(cols, r)
				want, ok := model[key]
				if !ok {
					want = int32(len(model))
					model[key] = want
				}
				if got[r] != want {
					t.Fatalf("batch at byte %d, row %d of %d, key %s: id %d, first-occurrence id %d", b, r, n, key, got[r], want)
				}
			}
		}
		if ht.Len() != len(model) {
			t.Fatalf("table holds %d keys, model %d", ht.Len(), len(model))
		}
		for key, id := range model {
			if stored := fuzzModelKey(ht.Keys(), int(id)); stored != key {
				t.Fatalf("id %d stores %s, model %s", id, stored, key)
			}
		}
	})
}
