package sqltypes

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The layout tests: Value is 24 bytes, every kind round-trips through its
// constructor and accessor, the comparison functions keep their answers, the
// GC keeps what a Value points at alive, and the string, float and tuple
// accessors do not allocate. scripts/ci.sh also runs them under -race, which
// checks every unsafe conversion in value.go.

func TestValueIs24Bytes(t *testing.T) {
	if n := reflect.TypeOf(Value{}).Size(); n != 24 {
		t.Fatalf("Value is %d bytes, want 24", n)
	}
}

func TestValueRoundTripEdges(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		if v := NewInt(i); v.Kind() != KindInt || v.Int() != i {
			t.Errorf("NewInt(%d) read back %v", i, v)
		}
		if v := NewDate(i); v.Kind() != KindDate || v.Int() != i {
			t.Errorf("NewDate(%d) read back %v", i, v.Int())
		}
	}
	if got := NewDate(-1).DateString(); got != "1969-12-31" {
		t.Errorf("NewDate(-1) = %s, want 1969-12-31", got)
	}
	if got := MustDate("1900-02-28"); got.Int() >= 0 || got.DateString() != "1900-02-28" {
		t.Errorf("pre-epoch date read back %d / %s", got.Int(), got.DateString())
	}
	for _, b := range []bool{false, true} {
		if v := NewBool(b); v.Kind() != KindBool || v.Bool() != b || v.Truthy() != b {
			t.Errorf("NewBool(%v) read back %v", b, v)
		}
	}

	negZero := math.Copysign(0, -1)
	for _, f := range []float64{0, negZero, 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64} {
		v := NewFloat(f)
		if v.Kind() != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v) read back %v (bits %x)", f, v.Float(), math.Float64bits(v.Float()))
		}
	}
	if !math.Signbit(NewFloat(negZero).Float()) {
		t.Error("-0 lost its sign")
	}
	if Hash(NewFloat(negZero)) != Hash(NewFloat(0)) || Hash(NewFloat(negZero)) != Hash(NewInt(0)) {
		t.Error("Hash no longer normalises -0")
	}
	if got := NewFloat(math.Inf(-1)).String(); got != "-Inf" {
		t.Errorf("-Inf renders %q", got)
	}

	big := strings.Repeat("abcdefgh", 16)
	for _, s := range []string{"", "x", "o'brien", big, big[3:11], big[len(big):], "é✓"} {
		v := NewString(s)
		if v.Kind() != KindString || v.Str() != s || len(v.Str()) != len(s) {
			t.Errorf("NewString(%q) read back %q", s, v.Str())
		}
	}

	if v := NewTuple(nil); v.Kind() != KindTuple || v.Tuple() != nil {
		t.Errorf("nil tuple read back %#v", v.Tuple())
	}
	if v := NewTuple([]Value{}); v.Tuple() == nil || len(v.Tuple()) != 0 {
		t.Errorf("empty tuple read back %#v", v.Tuple())
	}
	inner := []Value{NewString("a"), Null}
	backing := make([]Value, 2, 8)
	backing[0], backing[1] = NewInt(1), NewTuple(inner)
	nested := NewTuple(backing)
	if got := nested.String(); got != "(1, ('a', NULL))" {
		t.Errorf("nested tuple renders %s", got)
	}
	if tp := nested.Tuple(); len(tp) != 2 || cap(tp) != 2 || &tp[0] != &backing[0] {
		t.Errorf("Tuple() = len %d cap %d, want the wrapped slice with len == cap == 2", len(tp), cap(tp))
	}
	if got := nested.Tuple()[1].Tuple(); len(got) != 2 || got[0].Str() != "a" || !got[1].IsNull() {
		t.Errorf("inner tuple read back %v", got)
	}

	// Every accessor reads the zero payload on another kind.
	if NewFloat(1.5).Int() != 0 || NewString("ab").Int() != 0 || NewTuple(inner).Int() != 0 ||
		NewInt(5).Float() != 0 || NewInt(5).Str() != "" || NewInt(2).Tuple() != nil ||
		NewFloat(1).Bool() || Null.Str() != "" || Null.Tuple() != nil {
		t.Error("an accessor read a payload of another kind")
	}
}

// TestCompareGroupEqualHashTable pins Compare, GroupEqual and Hash equality
// on a fixed set of pairs, including cross-kind ones, so a layout change
// cannot move them.
func TestCompareGroupEqualHashTable(t *testing.T) {
	nan := math.NaN()
	tup := func(vs ...Value) Value { return NewTuple(vs) }
	big := "xx" + strings.Repeat("ab", 4)
	cases := []struct {
		a, b     Value
		cmp      int
		ok       bool
		group    bool
		sameHash bool
	}{
		{NewInt(3), NewFloat(3), 0, true, true, true},
		{NewInt(3), NewFloat(3.5), -1, true, false, false},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), 0, true, true, true},
		{NewFloat(nan), NewFloat(nan), 0, true, true, true},
		{NewFloat(math.Inf(1)), NewInt(math.MaxInt64), 1, true, false, false},
		{NewFloat(math.Inf(-1)), NewInt(math.MinInt64), -1, true, false, false},
		{NewInt(math.MinInt64), NewInt(math.MaxInt64), -1, true, false, false},
		{NewBool(true), NewBool(false), 1, true, false, false},
		{NewBool(true), NewInt(1), 0, true, true, false},
		{NewInt(1), NewString("1"), 0, false, false, false},
		{NewString("a"), NewString("b"), -1, true, false, false},
		{NewString(""), NewString(""), 0, true, true, true},
		{NewString(big[2:6]), NewString(strings.Repeat("ab", 2)), 0, true, true, true},
		{NewString(""), Null, 0, false, false, false},
		{Null, Null, 0, false, true, true},
		{NewDate(0), NewString("1970-01-01"), 0, true, true, false},
		{NewString("1969-12-31"), NewDate(0), -1, true, false, false},
		{NewDate(-1), NewDate(0), -1, true, false, false},
		{NewDate(5), NewInt(5), 0, false, false, true},
		{tup(NewInt(1), NewString("a")), tup(NewInt(1), NewString("b")), -1, true, false, false},
		{tup(NewInt(1), Null), tup(NewFloat(1), Null), 0, false, true, true},
		{tup(NewInt(1)), tup(NewInt(1), NewInt(2)), -1, true, false, false},
		{NewTuple(nil), NewTuple([]Value{}), 0, true, true, true},
		{tup(tup(NewInt(1))), tup(tup(NewFloat(1))), 0, true, true, true},
	}
	for i, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if cmp != c.cmp || ok != c.ok {
			t.Errorf("%d: Compare(%v, %v) = (%d, %v), want (%d, %v)", i, c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
		if g := GroupEqual(c.a, c.b); g != c.group {
			t.Errorf("%d: GroupEqual(%v, %v) = %v, want %v", i, c.a, c.b, g, c.group)
		}
		if h := Hash(c.a) == Hash(c.b); h != c.sameHash {
			t.Errorf("%d: Hash(%v) == Hash(%v) is %v, want %v", i, c.a, c.b, h, c.sameHash)
		}
	}
}

func TestIdentical(t *testing.T) {
	s := strings.Repeat("q", 3)
	same := [][2]Value{
		{Null, Null},
		{NewInt(math.MinInt64), NewInt(math.MinInt64)},
		{NewFloat(math.NaN()), NewFloat(math.NaN())},
		{NewString(s), NewString("qqq")},
		{NewTuple([]Value{NewString(s), NewTuple(nil)}), NewTuple([]Value{NewString("qqq"), NewTuple([]Value{})})},
	}
	for _, p := range same {
		if !Identical(p[0], p[1]) {
			t.Errorf("Identical(%v, %v) = false", p[0], p[1])
		}
	}
	differ := [][2]Value{
		{NewInt(3), NewFloat(3)},
		{NewDate(3), NewInt(3)},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0)},
		{NewString(""), Null},
		{NewString("a"), NewString("b")},
		{NewTuple([]Value{NewInt(1)}), NewTuple([]Value{NewInt(1), Null})},
		{NewTuple([]Value{NewInt(1)}), NewTuple([]Value{NewFloat(1)})},
	}
	for _, p := range differ {
		if Identical(p[0], p[1]) {
			t.Errorf("Identical(%v, %v) = true", p[0], p[1])
		}
	}
}

// TestValuesSurviveGC: a Value is the only reference to its string bytes or
// tuple elements once the source variables are gone; two collections and a
// heap of fresh garbage later, every payload reads back intact.
func TestValuesSurviveGC(t *testing.T) {
	const n = 200
	vals := make([]Value, 0, 3*n)
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i) + strings.Repeat("s", 64)
		vals = append(vals,
			NewString(s[len(s)/2:]),
			NewTuple([]Value{NewInt(int64(i)), NewString(strings.Repeat("t", i+1))}),
			NewTuple(append(make([]Value, 0, 4), NewTuple([]Value{NewString(strconv.Itoa(i))}))))
	}
	churn := func() {
		junk := make([][]byte, 0, 1024)
		for i := 0; i < cap(junk); i++ {
			b := make([]byte, 96)
			for j := range b {
				b[j] = 0xa5
			}
			junk = append(junk, b)
		}
		runtime.KeepAlive(junk)
	}
	runtime.GC()
	churn()
	runtime.GC()
	churn()
	for i := 0; i < n; i++ {
		full := strconv.Itoa(i) + strings.Repeat("s", 64)
		if got := vals[3*i].Str(); got != full[len(full)/2:] {
			t.Fatalf("string %d read back %q", i, got)
		}
		tp := vals[3*i+1].Tuple()
		if len(tp) != 2 || tp[0].Int() != int64(i) || tp[1].Str() != strings.Repeat("t", i+1) {
			t.Fatalf("tuple %d read back %v", i, vals[3*i+1])
		}
		if got := vals[3*i+2].Tuple()[0].Tuple()[0].Str(); got != strconv.Itoa(i) {
			t.Fatalf("nested tuple %d read back %q", i, got)
		}
	}
}

var (
	sinkValue  Value
	sinkString string
	sinkFloat  float64
	sinkTuple  []Value
)

func TestAccessorsDoNotAllocate(t *testing.T) {
	s := strings.Repeat("z", 40)
	f := 2.5
	tp := []Value{NewInt(1), NewString(s)}
	for name, fn := range map[string]func(){
		"NewString/Str":  func() { sinkValue = NewString(s); sinkString = sinkValue.Str() },
		"NewFloat/Float": func() { sinkValue = NewFloat(f); sinkFloat = sinkValue.Float() },
		"NewTuple/Tuple": func() { sinkValue = NewTuple(tp); sinkTuple = sinkValue.Tuple() },
	} {
		if a := testing.AllocsPerRun(200, fn); a != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, a)
		}
	}
}
