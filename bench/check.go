package main

import (
	"fmt"
	"math"
	"strconv"
)

// digest identifies a result set: its row count plus a hash of the
// normalised rows. Floats are quantised to a relative 1e-6 (exchange arrival
// order perturbs the last bits of parallel float sums); row order counts
// only for statements whose ORDER BY is a total order.
type digest struct {
	rows int
	sum  uint64
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (d digest) String() string { return fmt.Sprintf("%d rows #%016x", d.rows, d.sum) }

func digestRows(rows [][]any, ordered bool) digest {
	d := digest{rows: len(rows)}
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			buf = appendValue(buf, v)
			buf = append(buf, '|')
		}
		h := uint64(fnvOffset)
		for _, c := range buf {
			h = (h ^ uint64(c)) * fnvPrime
		}
		if ordered {
			d.sum = d.sum*fnvPrime + h
		} else {
			d.sum += h
		}
	}
	return d
}

func appendValue(buf []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case int32:
		return strconv.AppendInt(buf, int64(x), 10)
	case int:
		return strconv.AppendInt(buf, int64(x), 10)
	case float64:
		return appendFloat(buf, x)
	case string:
		return append(buf, x...)
	case bool:
		return strconv.AppendBool(buf, x)
	default:
		return fmt.Appendf(buf, "%v", v)
	}
}

// appendFloat renders x to about six significant digits by quantising its
// logarithm. Rounding the decimal rendering instead (%.6g) puts the bucket
// boundaries on round decimals — exactly where sums of hundredths land, so
// two summation orders of the same TPC-H answer flip between buckets far
// too often. Boundaries of the form exp((k+0.5)/1e6) are never such values.
func appendFloat(buf []byte, x float64) []byte {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	if x < 0 {
		buf = append(buf, '-')
	}
	buf = append(buf, 'e')
	return strconv.AppendInt(buf, int64(math.Round(math.Log(math.Abs(x))*1e6)), 10)
}
