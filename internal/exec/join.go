package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"vectorh/internal/compress"
	"vectorh/internal/expr"
	"vectorh/internal/vector"
)

// JoinType enumerates the supported join semantics. The probe side is always
// preserved for LeftOuter; Semi and Anti emit probe rows only.
type JoinType uint8

// Join types.
const (
	Inner JoinType = iota
	LeftOuter
	Semi
	Anti
)

// HashJoin streams the probe child through the hash table of its build
// side. Output columns are the probe columns followed by the build columns
// (Inner/LeftOuter); LeftOuter appends a trailing Bool "matched" column and
// pads unmatched build columns with zero values (the engine has no NULLs;
// aggregation over outer joins tests the matched flag, which is how Q13
// counts empty groups). A probe batch whose rows each match at most one
// build row, densely enough, comes out as itself under a selection, with the
// build columns placed at its rows (joinOutput). A String build column
// leaves as dictionary codes, the build row ids, over the frozen column.
//
// The table is not the join's: it belongs to Build, which every stream of a
// replicated build on one node shares and which a paired join holds alone.
// The join reads the table and the build columns from its first Next to its
// Close and never writes them.
type HashJoin struct {
	Build     *BuildSide
	Probe     Operator
	ProbeKeys []expr.Expr
	Type      JoinType

	probeKeys *expr.Program
	table     *HashTable
	buildCols []*vector.Vec
	dicts     []*compress.StrDict // per build column: its dictionary, for a String one
	left      bool                // this join has counted itself out of Build
	keyCols   []*vector.Vec       // per-batch evaluated key columns (reused)
	pool      vector.Pool         // probe scratch
}

// Open implements Operator. A join whose Open fails has left its build side
// and need not be closed; Close after it does no harm.
func (j *HashJoin) Open() (err error) {
	j.table, j.buildCols, j.dicts, j.left = nil, nil, nil, false
	j.keyCols = make([]*vector.Vec, len(j.ProbeKeys))
	defer func() {
		if err != nil {
			j.leave()
		}
	}()
	if j.probeKeys, err = expr.Compile(j.ProbeKeys...); err != nil {
		return err
	}
	if err = j.Build.open(); err != nil {
		return err
	}
	return j.Probe.Open()
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table, j.buildCols, j.dicts = nil, nil, nil
	err1, err2 := j.leave(), j.Probe.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// leave counts the join out of its build side, once per Open.
func (j *HashJoin) leave() error {
	if j.left {
		return nil
	}
	j.left = true
	return j.Build.close()
}

// Next implements Operator.
func (j *HashJoin) Next() (*vector.Batch, error) {
	if j.table == nil {
		var err error
		if j.table, j.buildCols, j.dicts, err = j.Build.table(); err != nil {
			return nil, err
		}
	}
	for {
		b, err := j.Probe.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if err := j.probeKeys.RunInto(b, j.keyCols); err != nil {
			return nil, err
		}
		var ps, bs []int32
		if j.Type == Semi || j.Type == Anti {
			ps = j.table.probeExists(&j.pool, j.keyCols, n, j.Type == Semi, j.pool.GetSel(n))
		} else {
			ps, bs = j.table.probeJoin(&j.pool, j.keyCols, n,
				j.pool.GetSel(n), j.pool.GetSel(n), j.Type == LeftOuter)
		}
		out := joinOutput(j.Type, b, ps, bs, j.buildCols, j.dicts, &j.pool)
		j.pool.PutSel(ps, bs)
		if out != nil {
			return out, nil
		}
	}
}

// newCols returns one empty vector per kind. With nil kinds (a join built
// without a plan, as tests build them) it takes the kinds of b's columns,
// and returns nil for a nil b.
func newCols(kinds []vector.Kind, b *vector.Batch) []*vector.Vec {
	if kinds == nil {
		if b == nil {
			return nil
		}
		for _, v := range b.Vecs {
			kinds = append(kinds, v.Kind())
		}
	}
	cols := make([]*vector.Vec, len(kinds))
	for i, k := range kinds {
		cols[i] = vector.New(k, 0)
	}
	return cols
}

// drainCols copies the live rows of every batch child produces into one
// column per kind, for the operators that keep their whole input (Sort and
// a hash join's build). Nil kinds take the first nonempty batch's, and an
// input with no rows then gives nil columns. what names the operator in a
// copy's error.
func drainCols(child Operator, kinds []vector.Kind, what string) ([]*vector.Vec, error) {
	cols := newCols(kinds, nil)
	for {
		b, err := child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return cols, nil
		}
		if b.Len() == 0 {
			continue
		}
		if cols == nil {
			cols = newCols(nil, b)
		}
		for i, v := range b.Vecs {
			if err := cols[i].AppendRowsChecked(v, b.Sel); err != nil {
				return nil, fmt.Errorf("exec: %s: %w", what, err)
			}
		}
	}
}

// BuildSide is the build of a hash join: the build operator, its compiled
// keys, the HashTable and the build columns, shared by the users, the
// HashJoins that probe it. On a replicated build every probe stream of a
// node is a user, so the node builds one table; a paired join is its side's
// one user.
//
// The side opens its operator at the first user's Open. The first user's
// Next drains it into the build columns (one copy of each batch's live rows;
// the batches themselves are not kept), sizes the table from the exact row
// count and inserts the keys, evaluated over the columns a vector.MaxSize
// window at a time; the other users wait for that build. It records whether
// the table's keys are unique (HashTable.setUnique) and makes each String
// column a dictionary whose values are the column's own strings, plus a
// trailing "" that pads LeftOuter rows, so that outputs carry the column as
// codes. The table and columns are then frozen, and every user probes them
// at once. A build error, a cancellation among them, reaches every user as
// the same error.
// When the last user has closed (or failed its Open), the side closes its
// operator and drops the table and columns; a user that closes without
// calling Next blocks nobody. Every user must close or fail its Open, or
// the side is never released.
type BuildSide struct {
	op       Operator
	kinds    []vector.Kind
	users    int
	prog     *expr.Program // the compiled build keys
	keyKinds []vector.Kind

	mu      sync.Mutex
	active  int  // users that have not left
	opened  bool // the first user's Open has opened op
	openErr error

	// Written by the first user's Next inside once, read by users after.
	once  sync.Once
	tab   *HashTable
	cols  []*vector.Vec
	dicts []*compress.StrDict
	err   error

	builtRows atomic.Int64
	unique    atomic.Bool
	pool      vector.Pool // the build's scratch
}

// NewBuildSide returns the build side of users hash joins over op, keyed on
// keys, for one execution: each user opens it once and closes it once.
// kinds are op's column kinds, from the plan, so that a build without rows
// still has its columns; nil takes them from the first build batch. A key
// that does not compile fails every user's Open.
func NewBuildSide(op Operator, keys []expr.Expr, kinds []vector.Kind, users int) *BuildSide {
	if users < 1 {
		panic(fmt.Sprintf("exec: build side with %d users", users))
	}
	s := &BuildSide{op: op, kinds: kinds, users: users, active: users}
	for _, k := range keys {
		s.keyKinds = append(s.keyKinds, k.Kind())
	}
	s.prog, s.openErr = expr.Compile(keys...)
	return s
}

// BuiltRows is the number of rows the build inserted into the table; it
// outlives the table, for EXPLAIN ANALYZE.
func (s *BuildSide) BuiltRows() int64 { return s.builtRows.Load() }

// Unique reports whether the build found no two rows with equal keys, so
// that every probe row matches at most one; false before the build.
func (s *BuildSide) Unique() bool { return s.unique.Load() }

// open opens the build operator at the first user's Open, and reports that
// error, or the keys' compile error, to every user.
func (s *BuildSide) open() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vector.DebugAsserts && s.active == 0 {
		panic("exec: build side opened after its last user closed")
	}
	if !s.opened && s.openErr == nil {
		s.opened = true
		s.openErr = s.op.Open()
	}
	return s.openErr
}

// table returns the built table, build columns and their dictionaries,
// building them on the first call and waiting for that build on every other.
func (s *BuildSide) table() (*HashTable, []*vector.Vec, []*compress.StrDict, error) {
	s.once.Do(func() { s.tab, s.cols, s.dicts, s.err = s.build() })
	return s.tab, s.cols, s.dicts, s.err
}

// buildDicts returns, per frozen build column, nil or, for a String one, a
// dictionary whose code r is row r's value, a substring of the column's
// arena, and whose last code is "". The dictionary keeps the arena alive as
// long as an output batch holds it, past the build side's release.
func buildDicts(cols []*vector.Vec) []*compress.StrDict {
	var dicts []*compress.StrDict
	for i, c := range cols {
		if c.Kind() != vector.String {
			continue
		}
		if dicts == nil {
			dicts = make([]*compress.StrDict, len(cols))
		}
		vals := make([]string, c.Len()+1)
		sc := c.StrCol()
		for r := range c.Len() {
			vals[r] = sc.At(r)
		}
		dicts[i] = &compress.StrDict{Values: vals}
	}
	return dicts
}

// build drains the build operator into columns, inserts their keys into a
// table sized for them, records whether those keys are unique and makes the
// String columns' dictionaries.
func (s *BuildSide) build() (*HashTable, []*vector.Vec, []*compress.StrDict, error) {
	cols, err := drainCols(s.op, s.kinds, "hash join build")
	if err != nil {
		return nil, nil, nil, err
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	t := newHashTable(s.keyKinds, &s.pool, n)
	keyCols := make([]*vector.Vec, len(s.keyKinds))
	win := &vector.Batch{Vecs: make([]*vector.Vec, len(cols))}
	for lo := 0; lo < n; lo += vector.MaxSize {
		hi := min(lo+vector.MaxSize, n)
		for i, c := range cols {
			win.Vecs[i] = c.Slice(lo, hi)
		}
		if err := s.prog.RunInto(win, keyCols); err != nil {
			return nil, nil, nil, err
		}
		if err := t.InsertBatch(keyCols, hi-lo); err != nil {
			return nil, nil, nil, fmt.Errorf("exec: hash join build: %w", err)
		}
	}
	t.setUnique()
	s.builtRows.Store(int64(n))
	s.unique.Store(t.unique)
	return t, cols, buildDicts(cols), nil
}

// close counts one user out; the last closes the build operator and drops
// the table and columns.
func (s *BuildSide) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		if vector.DebugAsserts {
			panic(fmt.Sprintf("exec: build side closed by more than its %d users", s.users))
		}
		return nil
	}
	if s.active--; s.active > 0 {
		return nil
	}
	s.tab, s.cols, s.dicts = nil, nil, nil
	if s.opened {
		return s.op.Close()
	}
	return nil
}

// passThroughDensity bounds how sparse an Inner or LeftOuter batch may be and
// still pass its probe side through: its emitted rows times this must reach
// its physical rows, since every physical row then costs a build cell. One
// pass of join_heavy's eight statements (SF 0.05, 3 nodes × 2 threads)
// copies 9.63 M probe cells when every batch gathers. With 4 it copies 175 k
// and writes 2.70 M build cells; with no bound it writes 7.78 M, with 16
// 3.61 M for 123 k probe cells, and from 2 to 8 the sum of both stays
// within 2.87–2.88 M (EXPERIMENTS.md, "Joins pass the probe side through").
const passThroughDensity = 4

// joinOutput assembles a join's output batch from probe batch b and the
// pairs a join found for it, or returns nil when there are none. ps holds
// probe live-row indices. Semi and Anti emit those probe rows themselves,
// under a selection of their physical positions. Inner and LeftOuter do the
// same when each probe row is emitted at most once, in order, and densely
// enough (passThroughDensity): the output then holds b's own vectors, the
// emitted rows as its selection (none when that is every row), and the
// build rows bs names placed at those physical rows, zero values at the
// others. Otherwise they gather the probe rows, then the build rows (a
// negative id pads with zero values). A build column with a dictionary in
// dicts (nil: none has one) is not copied: it leaves as codes, the build row
// ids, a negative id the dictionary's last code, "", and every such column
// of the batch shares one code slice. LeftOuter adds the matched flag. The
// batch leaves the operator: its selection and the vectors it makes are
// fresh, never the pool's, and the probe vectors it passes through stay b's,
// which no operator writes into (the package doc's aliasing rule).
func joinOutput(jt JoinType, b *vector.Batch, ps, bs []int32, build []*vector.Vec, dicts []*compress.StrDict, pool *vector.Pool) *vector.Batch {
	if len(ps) == 0 {
		return nil
	}
	phys := ps
	if b.Sel != nil {
		phys = pool.GetSel(len(ps))[:len(ps)]
		for i, r := range ps {
			phys[i] = b.Sel[r]
		}
		defer pool.PutSel(phys)
	}
	if jt == Semi || jt == Anti {
		return &vector.Batch{Vecs: b.Vecs, Sel: slices.Clone(phys)}
	}
	out := &vector.Batch{Vecs: make([]*vector.Vec, 0, len(b.Vecs)+len(build)+1)}
	if n := b.Col(0).Len(); len(phys)*passThroughDensity >= n && increasing(phys) {
		out.Vecs = append(out.Vecs, b.Vecs...)
		if len(phys) < n {
			out.Sel = slices.Clone(phys)
		}
		at := pool.GetSel(n)[:n] // the build row placed at each physical row
		for i := range at {
			at[i] = -1
		}
		for i, r := range phys {
			at[r] = bs[i]
		}
		defer pool.PutSel(at)
		bs = at
	} else {
		for _, v := range b.Vecs {
			out.Vecs = append(out.Vecs, v.Gather(phys, len(phys)))
		}
	}
	var codes []uint32
	for i, bv := range build {
		if dicts != nil && dicts[i] != nil {
			if codes == nil {
				codes = make([]uint32, len(bs))
				pad := uint32(bv.Len())
				for k, r := range bs {
					if codes[k] = uint32(r); r < 0 {
						codes[k] = pad
					}
				}
			}
			out.Vecs = append(out.Vecs, vector.FromDictCodes(codes, dicts[i]))
			continue
		}
		g := vector.New(bv.Kind(), len(bs))
		g.AppendGather(bv, bs)
		out.Vecs = append(out.Vecs, g)
	}
	if jt == LeftOuter {
		m := vector.New(vector.Bool, len(bs))
		for _, br := range bs {
			m.AppendBool(br >= 0)
		}
		out.Vecs = append(out.Vecs, m)
	}
	return out
}

// increasing reports whether rows is strictly increasing.
func increasing(rows []int32) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			return false
		}
	}
	return true
}

// MergeJoin joins two inputs ordered on an integer key without a hash table:
// the co-ordered clustered-index case of §2 (lineitem⋈orders, partsupp⋈part),
// which needs no network when partitions are co-located. It works a left
// batch at a time: the right rows whose keys the batch holds are copied into
// a window, one pass over the two key vectors pairs them, and joinOutput
// assembles the result as HashJoin's, the left side as the probe and the
// right as the build, for every join type. Keys may repeat on both sides.
type MergeJoin struct {
	Left     Operator
	Right    Operator
	LeftKey  int // column index of the left join key
	RightKey int // column index of the right join key
	Type     JoinType
	// RightKinds are the right columns' kinds, from the plan, so that a
	// right side without rows still has its columns; nil takes them from
	// the first right batch.
	RightKinds []vector.Kind

	win          []*vector.Vec // the window: right rows, live from wlo on
	wkeys        []int64
	wlo          int
	rb           *vector.Batch // the right batch being read
	rkeys        []int64       // its live rows' keys, rpos the next to read
	rpos         int
	rdone        bool
	lkeys        []int64 // the current left batch's live keys
	lastL, lastR int64   // last key read per side, for the vectorh_debug order check
	pool         vector.Pool
}

// Open implements Operator.
func (m *MergeJoin) Open() error {
	m.win, m.wkeys, m.wlo = newCols(m.RightKinds, nil), m.wkeys[:0], 0
	m.rb, m.rkeys, m.rpos, m.rdone = nil, m.rkeys[:0], 0, false
	m.lastL, m.lastR = math.MinInt64, math.MinInt64
	if err := m.Left.Open(); err != nil {
		return err
	}
	return m.Right.Open()
}

// Close implements Operator.
func (m *MergeJoin) Close() error { return closeBoth(m.Left, m.Right) }

// closeBoth closes a and b and returns the first error.
func closeBoth(a, b Operator) error {
	err1, err2 := a.Close(), b.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// checkAscending returns the last of keys, or prev for none, and panics when
// a key follows a larger one, prev included, on an input the plan relies on
// being ordered; callers guard it with vector.DebugAsserts.
func checkAscending(what string, prev int64, keys ...int64) int64 {
	for _, k := range keys {
		if k < prev {
			panic(fmt.Sprintf("exec: %s key %d after %d: input not in key order", what, k, prev))
		}
		prev = k
	}
	return prev
}

// appendKeys appends to dst the values of an Int32 or Int64 key column at the
// live rows sel selects (all rows for a nil sel).
func appendKeys(dst []int64, v *vector.Vec, sel []int32) []int64 {
	if v.Kind() == vector.Int32 {
		return appendLive(dst, v.Int32s(), sel)
	}
	return appendLive(dst, v.Int64s(), sel)
}

func appendLive[T int32 | int64](dst []int64, ks []T, sel []int32) []int64 {
	if sel == nil {
		for _, k := range ks {
			dst = append(dst, int64(k))
		}
		return dst
	}
	for _, r := range sel {
		dst = append(dst, int64(ks[r]))
	}
	return dst
}

// Next implements Operator.
func (m *MergeJoin) Next() (*vector.Batch, error) {
	for {
		// With the right side spent and the window empty, no later left
		// row matches (a filter following the key order spends it early).
		if m.rdone && m.wlo == len(m.wkeys) && (m.Type == Inner || m.Type == Semi) {
			return nil, nil
		}
		b, err := m.Left.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		m.lkeys = appendKeys(m.lkeys[:0], b.Col(m.LeftKey), b.Sel)
		if vector.DebugAsserts {
			m.lastL = checkAscending("merge join left", m.lastL, m.lkeys...)
		}
		if err := m.window(); err != nil {
			return nil, err
		}
		ps, bs := m.pairs(m.pool.GetSel(n), m.pool.GetSel(n))
		out := joinOutput(m.Type, b, ps, bs, m.win, nil, &m.pool)
		m.pool.PutSel(ps, bs)
		if out != nil {
			return out, nil
		}
	}
}

// window readies the window for the left batch: it retires the rows with
// keys below the batch's first, then reads right rows up to the first key
// above its last and copies in those whose key a left row holds. Past
// vector.MaxSize retired rows the window becomes a view of the rest, which
// the next append moves to storage of its own.
func (m *MergeJoin) window() error {
	for m.wlo < len(m.wkeys) && m.wkeys[m.wlo] < m.lkeys[0] {
		m.wlo++
	}
	if m.wlo >= vector.MaxSize {
		for i, v := range m.win {
			m.win[i] = v.Slice(m.wlo, v.Len())
		}
		m.wkeys, m.wlo = m.wkeys[m.wlo:], 0
	}
	last := m.lkeys[len(m.lkeys)-1]
	for {
		if m.rpos == len(m.rkeys) {
			if m.rdone {
				return nil
			}
			b, err := m.Right.Next()
			if err != nil {
				return err
			}
			if m.rdone = b == nil; m.rdone {
				return nil
			}
			if m.win == nil {
				m.win = newCols(nil, b)
			}
			m.rb, m.rkeys, m.rpos = b, appendKeys(m.rkeys[:0], b.Col(m.RightKey), b.Sel), 0
			if vector.DebugAsserts {
				m.lastR = checkAscending("merge join right", m.lastR, m.rkeys...)
			}
			continue
		}
		sel := m.pool.GetSel(len(m.rkeys) - m.rpos)
		for li := 0; m.rpos < len(m.rkeys) && m.rkeys[m.rpos] <= last; m.rpos++ {
			k := m.rkeys[m.rpos]
			for li < len(m.lkeys) && m.lkeys[li] < k {
				li++
			}
			if li < len(m.lkeys) && m.lkeys[li] == k {
				r := int32(m.rpos)
				if m.rb.Sel != nil {
					r = m.rb.Sel[r]
				}
				sel, m.wkeys = append(sel, r), append(m.wkeys, k)
			}
		}
		var err error
		for i, v := range m.rb.Vecs {
			if err == nil {
				err = m.win[i].AppendRowsChecked(v, sel)
			}
		}
		m.pool.PutSel(sel)
		if err != nil {
			return fmt.Errorf("exec: merge join window: %w", err)
		}
		if m.rpos < len(m.rkeys) {
			return nil
		}
	}
}

// pairs appends to ps and bs, for every left row in order, its live index
// and each window row with its key; a LeftOuter row without one pairs with
// -1. Semi and Anti append to ps alone the rows with and without one.
func (m *MergeJoin) pairs(ps, bs []int32) ([]int32, []int32) {
	j, e := m.wlo, m.wlo // the window rows with the current left key
	for i, k := range m.lkeys {
		if i == 0 || k != m.lkeys[i-1] {
			for j = e; j < len(m.wkeys) && m.wkeys[j] < k; j++ {
			}
			for e = j; e < len(m.wkeys) && m.wkeys[e] == k; e++ {
			}
		}
		switch {
		case m.Type == Semi || m.Type == Anti:
			if (e > j) == (m.Type == Semi) {
				ps = append(ps, int32(i))
			}
		case e > j:
			for r := j; r < e; r++ {
				ps, bs = append(ps, int32(i)), append(bs, int32(r))
			}
		case m.Type == LeftOuter:
			ps, bs = append(ps, int32(i)), append(bs, -1)
		}
	}
	return ps, bs
}
