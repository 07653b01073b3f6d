package vector

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vectorh/internal/compress"
)

// TestStringVecMatchesModel drives a String vector through random sequences
// of appends, range appends (from itself too) and gather appends (with -1
// padding), slices, gathers, resets and refills, from plain and dictionary
// sources, and checks it against a []string model after every step.
// Strings read before a Reset must keep their values after the refill:
// arenas are never rewritten.
func TestStringVecMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	word := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	words := make([]string, 40)
	for i := range words {
		words[i] = word()
	}
	plain := make([]string, 300)
	for i := range plain {
		plain[i] = word()
	}
	dict := &compress.StrDict{Values: words}
	codes := make([]uint32, 300)
	for i := range codes {
		codes[i] = uint32(rng.Intn(len(words)))
	}
	dictModel := make([]string, len(codes))
	for i, c := range codes {
		dictModel[i] = words[c]
	}
	sources := []struct {
		v     *Vec
		model []string
	}{
		{FromString(plain), plain},
		{FromDictCodes(codes, dict), dictModel},
		{FromString(plain).Slice(100, 250), plain[100:250]},
	}

	check := func(step string, v *Vec, model []string) {
		t.Helper()
		if v.Len() != len(model) {
			t.Fatalf("%s: Len %d, model %d", step, v.Len(), len(model))
		}
		for i, want := range model {
			if got := v.StrAt(i); got != want {
				t.Fatalf("%s: [%d] = %q, model %q", step, i, got, want)
			}
		}
		bytes := 0
		for _, s := range model {
			bytes += len(s)
		}
		if !v.IsDict() && v.Bytes() != bytes+4*len(model) {
			t.Fatalf("%s: Bytes %d, model %d", step, v.Bytes(), bytes+4*len(model))
		}
	}

	type kept struct{ s, want string }
	for round := 0; round < 200; round++ {
		v, model := New(String, rng.Intn(4)), []string(nil)
		if round%3 == 0 {
			// A view of another vector's arena: appends must not reach it.
			v, model = sources[0].v.Slice(5, 15), append([]string(nil), plain[5:15]...)
		}
		var held []kept
		for step := 0; step < 30; step++ {
			src := sources[rng.Intn(len(sources))]
			n := src.v.Len()
			name := fmt.Sprintf("round %d step %d", round, step)
			switch rng.Intn(9) {
			case 0:
				s := word()
				v.AppendString(s)
				model = append(model, s)
			case 1:
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo+1)
				v.AppendRange(src.v, lo, hi)
				model = append(model, src.model[lo:hi]...)
			case 2:
				sel := make([]int32, rng.Intn(50))
				for i := range sel {
					sel[i] = int32(rng.Intn(n+5)) - 5 // some -1..-5 padding
					if sel[i] < 0 {
						sel[i] = -1
						model = append(model, "")
					} else {
						model = append(model, src.model[sel[i]])
					}
				}
				v.AppendGather(src.v, sel)
			case 3:
				if len(model) > 0 {
					lo := rng.Intn(len(model))
					hi := lo + rng.Intn(len(model)-lo+1)
					check(name+" slice", v.Slice(lo, hi), model[lo:hi])
				}
			case 4:
				for i := 0; i < len(model) && i < 5; i++ {
					j := rng.Intn(len(model))
					held = append(held, kept{v.StrAt(j), model[j]})
				}
				v.Reset()
				model = model[:0:0]
			case 5:
				sel := make([]int32, rng.Intn(40))
				m := make([]string, len(sel))
				for i := range sel {
					sel[i] = int32(rng.Intn(n))
					m[i] = src.model[sel[i]]
				}
				if len(model) > 0 {
					held = append(held, kept{v.StrAt(0), model[0]})
				}
				v.GatherFrom(src.v, sel)
				model = m
			case 6:
				g := v.Gather(nil, len(model))
				check(name+" dense gather", g, model)
			case 7:
				k := rng.Intn(5)
				v.Resize(k)
				model = make([]string, k)
			case 8: // a range of the vector onto itself
				if len(model) > 0 {
					lo := rng.Intn(len(model))
					hi := lo + rng.Intn(len(model)-lo+1)
					v.AppendRange(v, lo, hi)
					model = append(model, model[lo:hi]...)
				}
			}
			check(name, v, model)
			for _, h := range held {
				if h.s != h.want {
					t.Fatalf("%s: a string read before a reset became %q, was %q", name, h.s, h.want)
				}
			}
		}
	}
	for i, src := range sources {
		check(fmt.Sprintf("source %d", i), src.v, src.model)
	}
}

// TestVecValuesPointerFree guards the representation: every slice in a
// Vec, and in the string column it embeds, holds pointer-free elements, so
// the garbage collector marks a fixed number of pointers per vector however
// many values it holds.
func TestVecValuesPointerFree(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Slice:
				if hasPointers(f.Type.Elem()) {
					t.Errorf("%s.%s is a slice of %v, whose elements hold pointers", path, f.Name, f.Type.Elem())
				}
			case reflect.Struct:
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Vec{}), "Vec")
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestCheckedAppendsStopAtMaxBytes: where a string vector would pass
// compress.MaxBytes (4 GiB), the checked appends return ErrStringBytes and
// append nothing instead of panicking. The source is 4096 copies of one
// 1 MiB value in dictionary form, 4 GiB as strings in 1 MiB of memory.
func TestCheckedAppendsStopAtMaxBytes(t *testing.T) {
	const mib = 1 << 20
	src := FromDictCodes(make([]uint32, 4096), &compress.StrDict{Values: []string{strings.Repeat("x", mib)}})
	v := New(String, 0)
	if err := v.AppendRangeChecked(src, 0, 2); err != nil {
		t.Fatal(err)
	}
	rest := compress.MaxBytes/mib - 1 // 2 MiB + rest = 2^32 bytes, one past MaxBytes
	if err := v.AppendRangeChecked(src, 0, rest); !errors.Is(err, ErrStringBytes) {
		t.Fatalf("AppendRangeChecked past MaxBytes: err = %v", err)
	}
	if err := v.AppendRowsChecked(src, make([]int32, rest)); !errors.Is(err, ErrStringBytes) {
		t.Fatalf("AppendRowsChecked past MaxBytes: err = %v", err)
	}
	if v.Len() != 2 || v.Bytes() != 2*mib+2*strWidth || v.StrAt(1) != src.StrAt(0) {
		t.Fatalf("after the refused appends: %d values, %d bytes", v.Len(), v.Bytes())
	}
}
