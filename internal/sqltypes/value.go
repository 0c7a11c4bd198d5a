package sqltypes

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Value is a runtime SQL value. The zero Value is NULL.
//
// Values are 24 bytes (a kind, one 8-byte payload and one pointer) and are
// passed by value everywhere; rows are []Value. By kind:
//
//	KindNull            n = 0, p = nil
//	KindBool            n = 0 or 1, p = nil
//	KindInt, KindDate   n = the int64 payload, p = nil
//	KindFloat           n = math.Float64bits of the payload, p = nil
//	KindString          n = length, p = the first byte (nil when empty)
//	KindTuple           n = length, p = the first element (nil for a nil slice)
//
// Only the accessors below read p and n. The leading zero-size func array
// keeps Value out of == and map keys (== would compare string addresses).
type Value struct {
	_    [0]func()
	p    unsafe.Pointer
	n    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// NewBool returns a BOOL value.
func NewBool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a STRING value. The bytes are not copied.
func NewString(s string) Value {
	if len(s) == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{kind: KindDate, n: uint64(days)} }

// NewTuple returns a TUPLE value wrapping vs. The slice is not copied, and
// Tuple returns it with its capacity cut to its length.
func NewTuple(vs []Value) Value {
	return Value{kind: KindTuple, p: unsafe.Pointer(unsafe.SliceData(vs)), n: uint64(len(vs))}
}

// vi, vf, vs and vt read the payload of a Value whose kind the caller has
// checked: bool/int/date, float, string and tuple respectively.
func (v Value) vi() int64   { return int64(v.n) }
func (v Value) vf() float64 { return math.Float64frombits(v.n) }
func (v Value) vs() string  { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) vt() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }

// ParseDate parses 'YYYY-MM-DD' into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("sqltypes: bad date %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustDate parses 'YYYY-MM-DD' and panics on error; for tests and generators.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; false for a kind without one.
func (v Value) Bool() bool { return v.Int() != 0 }

// Int returns the payload of a BOOL (0/1), INT or DATE; 0 for other kinds.
func (v Value) Int() int64 {
	switch v.kind {
	case KindBool, KindInt, KindDate:
		return v.vi()
	}
	return 0
}

// Float returns the float payload; 0 for other kinds.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return v.vf()
}

// Str returns the string payload; "" for other kinds.
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.vs()
}

// Tuple returns the tuple payload (len == cap); nil for other kinds.
func (v Value) Tuple() []Value {
	if v.kind != KindTuple {
		return nil
	}
	return v.vt()
}

// AsFloat coerces numeric values to float64. NULL and non-numerics yield 0
// with ok=false.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.vi()), true
	case KindFloat:
		return v.vf(), true
	case KindBool:
		return float64(v.vi()), true
	default:
		return 0, false
	}
}

// AsInt coerces numeric values to int64 (floats truncate toward zero).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return v.vi(), true
	case KindFloat:
		return int64(v.vf()), true
	default:
		return 0, false
	}
}

// Truthy reports whether v is a non-NULL true boolean. SQL WHERE semantics:
// NULL and false both reject.
func (v Value) Truthy() bool { return v.kind == KindBool && v.vi() != 0 }

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.vi() != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.vi(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.vf(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.vs(), "'", "''") + "'"
	case KindDate:
		return "'" + v.DateString() + "'"
	case KindTuple:
		t := v.vt()
		parts := make([]string, len(t))
		for i, e := range t {
			parts[i] = e.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// DateString renders a DATE value as YYYY-MM-DD.
func (v Value) DateString() string {
	return time.Unix(v.vi()*86400, 0).UTC().Format("2006-01-02")
}

// Display renders the value for result output (strings unquoted).
func (v Value) Display() string {
	switch v.kind {
	case KindString:
		return v.vs()
	case KindDate:
		return v.DateString()
	case KindFloat:
		return strconv.FormatFloat(v.vf(), 'f', -1, 64)
	default:
		return v.String()
	}
}

// CoerceTo converts v to the runtime kind of the declared type t, following
// SQL assignment semantics. NULL stays NULL. Returns an error for impossible
// conversions.
func (v Value) CoerceTo(t Type) (Value, error) {
	if v.kind == KindNull {
		return Null, nil
	}
	switch t.Kind() {
	case KindBool:
		switch v.kind {
		case KindBool:
			return v, nil
		case KindInt:
			return NewBool(v.vi() != 0), nil
		case KindFloat:
			return NewBool(v.vf() != 0), nil
		}
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return NewInt(i), nil
		}
		if v.kind == KindString {
			i, err := strconv.ParseInt(strings.TrimSpace(v.vs()), 10, 64)
			if err == nil {
				return NewInt(i), nil
			}
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return NewFloat(f), nil
		}
		if v.kind == KindString {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.vs()), 64)
			if err == nil {
				return NewFloat(f), nil
			}
		}
	case KindString:
		s := v.Display()
		if t.Prec > 0 && len(s) > t.Prec {
			s = s[:t.Prec]
		}
		return NewString(s), nil
	case KindDate:
		switch v.kind {
		case KindDate:
			return v, nil
		case KindString:
			return ParseDate(v.vs())
		case KindInt:
			return NewDate(v.vi()), nil
		}
	case KindTuple:
		if v.kind == KindTuple {
			return v, nil
		}
		return NewTuple([]Value{v}), nil
	}
	return Null, fmt.Errorf("sqltypes: cannot coerce %s to %s", v.kind, t)
}

// Compare compares two values, returning (-1|0|1, true) or (0, false) when
// either side is NULL or the kinds are incomparable. Ints and floats compare
// numerically; dates compare as day numbers; strings compare bytewise.
func Compare(a, b Value) (int, bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	switch {
	case a.kind == KindString && b.kind == KindString:
		return strings.Compare(a.vs(), b.vs()), true
	case a.kind == KindDate && b.kind == KindDate:
		return cmpInt(a.vi(), b.vi()), true
	case a.kind == KindDate && b.kind == KindString:
		// SQL-style implicit coercion of date-shaped strings.
		if bv, err := ParseDate(b.vs()); err == nil {
			return cmpInt(a.vi(), bv.vi()), true
		}
		return 0, false
	case a.kind == KindString && b.kind == KindDate:
		if av, err := ParseDate(a.vs()); err == nil {
			return cmpInt(av.vi(), b.vi()), true
		}
		return 0, false
	case a.kind == KindBool && b.kind == KindBool:
		return cmpInt(a.vi(), b.vi()), true
	case a.kind == KindInt && b.kind == KindInt:
		return cmpInt(a.vi(), b.vi()), true
	case a.kind == KindTuple && b.kind == KindTuple:
		at, bt := a.vt(), b.vt()
		n := min(len(at), len(bt))
		for i := 0; i < n; i++ {
			if c, ok := Compare(at[i], bt[i]); !ok {
				return 0, false
			} else if c != 0 {
				return c, true
			}
		}
		return cmpInt(int64(len(at)), int64(len(bt))), true
	default:
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if !aok || !bok {
			return 0, false
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
}

// CompareRef is Compare with same-kind fast paths that read the two values
// in place; every other pairing (NULLs, int against float, a date-shaped
// string against a date, tuples) goes through Compare itself.
func CompareRef(a, b *Value) (int, bool) {
	if k := a.kind; k == b.kind {
		switch k {
		case KindInt, KindDate:
			return cmpInt(a.vi(), b.vi()), true
		case KindFloat:
			return cmpFloat(a.vf(), b.vf()), true
		case KindString:
			return strings.Compare(a.vs(), b.vs()), true
		}
	}
	return Compare(*a, *b)
}

// cmpFloat orders floats as Compare does: a NaN is neither below nor above
// anything, so it compares equal.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports strict SQL equality: NULL = anything is not equal (returns
// false), matching three-valued logic collapsed to boolean for hashing and
// grouping purposes use GroupEqual instead.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// GroupEqual reports equality under grouping semantics, where NULLs compare
// equal to each other (as GROUP BY treats them). Tuples compare element-wise
// with the same NULL-safe rule.
func GroupEqual(a, b Value) bool {
	if a.kind == KindNull && b.kind == KindNull {
		return true
	}
	if a.kind == KindTuple && b.kind == KindTuple {
		return RowsGroupEqual(a.vt(), b.vt())
	}
	return Equal(a, b)
}

// Identical reports whether a and b are the same value: the same kind and
// payload bits, strings by content and tuples element by element, with no
// coercion between kinds. Compare Values with it, not reflect.DeepEqual,
// which compares a string's data pointer rather than its bytes.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindString:
		return a.vs() == b.vs()
	case KindTuple:
		at, bt := a.vt(), b.vt()
		if len(at) != len(bt) {
			return false
		}
		for i := range at {
			if !Identical(at[i], bt[i]) {
				return false
			}
		}
		return true
	}
	return a.n == b.n
}

var hashSeed = maphash.MakeSeed()

// Hash returns a hash of v suitable for hash joins and hash aggregation.
// Values that are GroupEqual hash identically (ints and equal floats share
// a representation).
func Hash(v Value) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	switch v.kind {
	case KindNull:
		h.WriteByte(0)
	case KindBool:
		h.WriteByte(1)
		h.WriteByte(byte(v.vi()))
	case KindInt, KindDate:
		writeFloatHash(&h, float64(v.vi()))
	case KindFloat:
		writeFloatHash(&h, v.vf())
	case KindString:
		h.WriteByte(3)
		h.WriteString(v.vs())
	case KindTuple:
		h.WriteByte(4)
		for _, e := range v.vt() {
			sub := Hash(e)
			var buf [8]byte
			for i := 0; i < 8; i++ {
				buf[i] = byte(sub >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// writeFloatHash writes a canonical numeric representation so that
// NewInt(3) and NewFloat(3) hash identically (they compare equal).
func writeFloatHash(h *maphash.Hash, f float64) {
	h.WriteByte(2)
	bits := math.Float64bits(f)
	if f == 0 { // normalize -0
		bits = 0
	}
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(bits >> (8 * i))
	}
	h.Write(buf[:])
}

// HashRow hashes a slice of values (a row or a grouping key).
func HashRow(vs []Value) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, v := range vs {
		sub := Hash(v)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(sub >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// RowsGroupEqual reports whether two rows are equal under grouping semantics.
func RowsGroupEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !GroupEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
