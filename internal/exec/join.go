package exec

import (
	"fmt"
	"math"

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

// HashJoin builds a hash table on the build child and streams the probe
// child through it. Output columns are the probe columns followed by the
// build columns (Inner/LeftOuter); LeftOuter appends a trailing Bool
// "matched" column and pads unmatched build columns with zero values (the
// engine has no NULLs; aggregation over outer joins tests the matched flag,
// which is how Q13 counts empty groups).
type HashJoin struct {
	Build     Operator
	Probe     Operator
	BuildKeys []expr.Expr
	ProbeKeys []expr.Expr
	Type      JoinType

	buildKeys, probeKeys *expr.Program
	built                bool
	table                *HashTable
	buildCols            []*vector.Vec
	keyCols              []*vector.Vec // per-batch evaluated key columns (reused)
	pool                 vector.Pool
}

// Open implements Operator.
func (j *HashJoin) Open() (err error) {
	j.built = false
	j.table = nil
	j.buildCols = nil
	j.keyCols = nil
	if j.buildKeys, err = expr.Compile(j.BuildKeys...); err != nil {
		return err
	}
	if j.probeKeys, err = expr.Compile(j.ProbeKeys...); err != nil {
		return err
	}
	if err := j.Build.Open(); err != nil {
		return err
	}
	return j.Probe.Open()
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	err1 := j.Build.Close()
	err2 := j.Probe.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (j *HashJoin) buildTable() error {
	kinds := make([]vector.Kind, len(j.BuildKeys))
	for i, k := range j.BuildKeys {
		kinds[i] = k.Kind()
	}
	j.table = NewHashTable(kinds, &j.pool)
	keyCols := make([]*vector.Vec, len(j.BuildKeys))
	for {
		b, err := j.Build.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if j.buildCols == nil {
			j.buildCols = make([]*vector.Vec, len(b.Vecs))
			for i, v := range b.Vecs {
				j.buildCols[i] = vector.New(v.Kind(), n)
			}
		}
		if err := j.buildKeys.RunInto(b, keyCols); err != nil {
			return err
		}
		if err := j.table.InsertBatch(keyCols, n); err != nil {
			return fmt.Errorf("exec: hash join build: %w", err)
		}
		// Append the build columns in the same live-row order the key
		// columns were hashed in, so table row ids index buildCols.
		for i, v := range b.Vecs {
			if err := j.buildCols[i].AppendRowsChecked(v, b.Sel); err != nil {
				return fmt.Errorf("exec: hash join build: %w", err)
			}
		}
	}
}

// Next implements Operator.
func (j *HashJoin) Next() (*vector.Batch, error) {
	if !j.built {
		if err := j.buildTable(); err != nil {
			return nil, err
		}
		j.built = true
	}
	if j.keyCols == nil {
		j.keyCols = make([]*vector.Vec, len(j.ProbeKeys))
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
		switch j.Type {
		case Semi, Anti:
			sel := j.table.ProbeExists(j.keyCols, n, j.Type == Semi, j.pool.GetSel(n))
			if len(sel) == 0 {
				j.pool.PutSel(sel)
				continue
			}
			// The output shares the probe vectors under a fresh selection
			// (mapped to physical positions); it is handed downstream, so
			// it must not come from the pool.
			outSel := make([]int32, len(sel))
			if b.Sel != nil {
				for i, r := range sel {
					outSel[i] = b.Sel[r]
				}
			} else {
				copy(outSel, sel)
			}
			j.pool.PutSel(sel)
			return &vector.Batch{Vecs: b.Vecs, Sel: outSel}, nil
		}
		// Inner / LeftOuter: batched probe emitting (probe, build) pairs.
		ps, bs := j.table.ProbeJoin(j.keyCols, n,
			j.pool.GetSel(n), j.pool.GetSel(n), j.Type == LeftOuter)
		if len(ps) == 0 {
			j.pool.PutSel(ps, bs)
			continue
		}
		// Resolve probe pair indices to physical row positions for gathering.
		phys := ps
		if b.Sel != nil {
			phys = j.pool.GetSel(len(ps))[:len(ps)]
			for i, r := range ps {
				phys[i] = b.Sel[r]
			}
		}
		out := &vector.Batch{Vecs: make([]*vector.Vec, 0, len(b.Vecs)+len(j.buildCols)+1)}
		for _, v := range b.Vecs {
			out.Vecs = append(out.Vecs, v.Gather(phys, len(phys)))
		}
		for _, bv := range j.buildCols {
			g := vector.New(bv.Kind(), len(bs))
			g.AppendGather(bv, bs) // negative ids pad with zero values
			out.Vecs = append(out.Vecs, g)
		}
		if j.Type == LeftOuter {
			m := vector.New(vector.Bool, len(bs))
			for _, br := range bs {
				m.AppendBool(br >= 0)
			}
			out.Vecs = append(out.Vecs, m)
		}
		if b.Sel != nil {
			j.pool.PutSel(phys)
		}
		j.pool.PutSel(ps, bs)
		return out, nil
	}
}

// NumBuildCols reports the build side's column count after the build phase;
// planners use the static schema instead, this is a testing aid.
func (j *HashJoin) NumBuildCols() int { return len(j.buildCols) }

// MergeJoin joins two inputs ordered on an int64 key, where the right
// (referenced) side has unique keys — the co-ordered clustered-index case
// of §2 (lineitem⋈orders, partsupp⋈part) that needs no hash table and no
// network when partitions are co-located. Output: left columns then right
// columns.
type MergeJoin struct {
	Left     Operator
	Right    Operator
	LeftKey  int // column index of the left join key
	RightKey int // column index of the right join key

	lb, rb *vector.Batch
	lpos   int
	rpos   int
	ldone  bool
	rdone  bool

	// Equal-key runs on the right side make the join many-to-many: the run
	// of right rows sharing runKey is buffered in run so every left row with
	// that key replays it, even when the run spans right batch boundaries.
	run      *vector.Batch
	runKey   int64
	runValid bool
	runPos   int   // resume point when an output batch fills mid-run
	lastL    int64 // last key read per side, for the vectorh_debug order check
	lastR    int64
}

// Open implements Operator.
func (m *MergeJoin) Open() error {
	m.lb, m.rb = nil, nil
	m.lpos, m.rpos = 0, 0
	m.ldone, m.rdone = false, false
	m.run, m.runValid, m.runPos = nil, false, 0
	m.lastL, m.lastR = math.MinInt64, math.MinInt64
	if err := m.Left.Open(); err != nil {
		return err
	}
	return m.Right.Open()
}

// Close implements Operator.
func (m *MergeJoin) Close() error {
	err1 := m.Left.Close()
	err2 := m.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func (m *MergeJoin) fillLeft() error {
	for !m.ldone && (m.lb == nil || m.lpos >= m.lb.Len()) {
		b, err := m.Left.Next()
		if err != nil {
			return err
		}
		if b == nil {
			m.ldone = true
			m.lb = nil
			return nil
		}
		m.lb, m.lpos = b.Compact(), 0
	}
	return nil
}

func (m *MergeJoin) fillRight() error {
	for !m.rdone && (m.rb == nil || m.rpos >= m.rb.Len()) {
		b, err := m.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			m.rdone = true
			m.rb = nil
			return nil
		}
		m.rb, m.rpos = b.Compact(), 0
	}
	return nil
}

// checkAscending returns k, or panics when k follows a larger prev on an input
// the plan relies on being ordered; callers guard it with vector.DebugAsserts.
func checkAscending(what string, prev, k int64) int64 {
	if k < prev {
		panic(fmt.Sprintf("exec: %s key %d after %d: input not in key order", what, k, prev))
	}
	return k
}

func int64At(v *vector.Vec, i int) int64 {
	if v.Kind() == vector.Int32 {
		return int64(v.Int32s()[i])
	}
	return v.Int64s()[i]
}

// Next implements Operator.
func (m *MergeJoin) Next() (*vector.Batch, error) {
	var out *vector.Batch
	emitted := 0
	for emitted < vector.MaxSize {
		if err := m.fillLeft(); err != nil {
			return nil, err
		}
		if m.lb == nil {
			break
		}
		lk := int64At(m.lb.Col(m.LeftKey), m.lpos)
		if vector.DebugAsserts {
			m.lastL = checkAscending("merge join left", m.lastL, lk)
		}
		// Replay the buffered run for every left row sharing its key; this
		// also drains left duplicates after the right side is exhausted.
		if m.runValid && lk == m.runKey {
			if out == nil {
				out = &vector.Batch{}
				for _, v := range m.lb.Vecs {
					out.Vecs = append(out.Vecs, vector.New(v.Kind(), vector.MaxSize))
				}
				for _, v := range m.run.Vecs {
					out.Vecs = append(out.Vecs, vector.New(v.Kind(), vector.MaxSize))
				}
			}
			nl := len(m.lb.Vecs)
			for m.runPos < m.run.Len() && emitted < vector.MaxSize {
				for i, v := range m.lb.Vecs {
					out.Vecs[i].AppendFrom(v, m.lpos)
				}
				for i, v := range m.run.Vecs {
					out.Vecs[nl+i].AppendFrom(v, m.runPos)
				}
				m.runPos++
				emitted++
			}
			if m.runPos < m.run.Len() {
				break // output full mid-run; resume this left row next call
			}
			m.runPos = 0
			m.lpos++
			continue
		}
		if err := m.fillRight(); err != nil {
			return nil, err
		}
		if m.rb == nil {
			break
		}
		rk := int64At(m.rb.Col(m.RightKey), m.rpos)
		if vector.DebugAsserts {
			m.lastR = checkAscending("merge join right", m.lastR, rk)
		}
		switch {
		case lk < rk:
			m.lpos++
		case lk > rk:
			m.rpos++
		default:
			// New run: buffer every right row with this key (the run may
			// cross right batch boundaries), then loop to replay it.
			if m.run == nil {
				m.run = &vector.Batch{}
				for _, v := range m.rb.Vecs {
					m.run.Vecs = append(m.run.Vecs, vector.New(v.Kind(), 0))
				}
			} else {
				for _, v := range m.run.Vecs {
					v.Reset()
				}
			}
			m.runKey, m.runValid, m.runPos = rk, true, 0
			for {
				for i, v := range m.rb.Vecs {
					if err := m.run.Vecs[i].AppendRangeChecked(v, m.rpos, m.rpos+1); err != nil {
						return nil, fmt.Errorf("exec: merge join run: %w", err)
					}
				}
				m.rpos++
				if err := m.fillRight(); err != nil {
					return nil, err
				}
				if m.rb == nil || int64At(m.rb.Col(m.RightKey), m.rpos) != rk {
					break
				}
			}
		}
	}
	if out == nil || out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}
