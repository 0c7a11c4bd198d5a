package sqltypes

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustApply(t *testing.T, op BinaryOp, a, b Value) Value {
	t.Helper()
	v, err := Apply(op, a, b)
	if err != nil {
		t.Fatalf("Apply(%v, %v, %v): %v", op, a, b, err)
	}
	return v
}

func TestIntArithmetic(t *testing.T) {
	if v := mustApply(t, OpAdd, NewInt(2), NewInt(3)); v.Int() != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := mustApply(t, OpSub, NewInt(2), NewInt(3)); v.Int() != -1 {
		t.Errorf("2-3 = %v", v)
	}
	if v := mustApply(t, OpMul, NewInt(4), NewInt(3)); v.Int() != 12 {
		t.Errorf("4*3 = %v", v)
	}
	if v := mustApply(t, OpDiv, NewInt(7), NewInt(2)); v.Int() != 3 {
		t.Errorf("7/2 = %v (integer division)", v)
	}
	if v := mustApply(t, OpMod, NewInt(7), NewInt(2)); v.Int() != 1 {
		t.Errorf("7%%2 = %v", v)
	}
}

func TestMixedArithmeticPromotesToFloat(t *testing.T) {
	v := mustApply(t, OpDiv, NewInt(7), NewFloat(2))
	if v.Kind() != KindFloat || v.Float() != 3.5 {
		t.Errorf("7/2.0 = %v", v)
	}
	v = mustApply(t, OpMul, NewFloat(1.5), NewInt(2))
	if v.Float() != 3 {
		t.Errorf("1.5*2 = %v", v)
	}
}

func TestDivisionByZero(t *testing.T) {
	if _, err := Apply(OpDiv, NewInt(1), NewInt(0)); err == nil {
		t.Fatal("int div by zero must error")
	}
	if _, err := Apply(OpDiv, NewFloat(1), NewFloat(0)); err == nil {
		t.Fatal("float div by zero must error")
	}
	if _, err := Apply(OpMod, NewInt(1), NewInt(0)); err == nil {
		t.Fatal("mod by zero must error")
	}
}

func TestNullPropagation(t *testing.T) {
	for _, op := range []BinaryOp{OpAdd, OpSub, OpMul, OpDiv, OpEq, OpLt, OpConcat, OpLike} {
		if v := mustApply(t, op, Null, NewInt(1)); !v.IsNull() {
			t.Errorf("%v with NULL lhs = %v", op, v)
		}
		if v := mustApply(t, op, NewInt(1), Null); !v.IsNull() {
			t.Errorf("%v with NULL rhs = %v", op, v)
		}
	}
}

func TestKleeneLogic(t *testing.T) {
	tr, fa := NewBool(true), NewBool(false)
	// FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
	if v := mustApply(t, OpAnd, fa, Null); !v.Truthy() == false && !v.IsNull() {
		t.Errorf("FALSE AND NULL = %v", v)
	}
	if v := mustApply(t, OpAnd, fa, Null); v.IsNull() || v.Bool() {
		t.Errorf("FALSE AND NULL = %v, want FALSE", v)
	}
	if v := mustApply(t, OpAnd, tr, Null); !v.IsNull() {
		t.Errorf("TRUE AND NULL = %v, want NULL", v)
	}
	// TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
	if v := mustApply(t, OpOr, tr, Null); v.IsNull() || !v.Bool() {
		t.Errorf("TRUE OR NULL = %v, want TRUE", v)
	}
	if v := mustApply(t, OpOr, fa, Null); !v.IsNull() {
		t.Errorf("FALSE OR NULL = %v, want NULL", v)
	}
	if v := Not(Null); !v.IsNull() {
		t.Errorf("NOT NULL = %v", v)
	}
	if v := Not(tr); v.Bool() {
		t.Errorf("NOT TRUE = %v", v)
	}
}

func TestComparisonOps(t *testing.T) {
	cases := []struct {
		op   BinaryOp
		a, b int64
		want bool
	}{
		{OpEq, 1, 1, true}, {OpEq, 1, 2, false},
		{OpNe, 1, 2, true}, {OpNe, 2, 2, false},
		{OpLt, 1, 2, true}, {OpLt, 2, 2, false},
		{OpLe, 2, 2, true}, {OpLe, 3, 2, false},
		{OpGt, 3, 2, true}, {OpGt, 2, 2, false},
		{OpGe, 2, 2, true}, {OpGe, 1, 2, false},
	}
	for _, c := range cases {
		v := mustApply(t, c.op, NewInt(c.a), NewInt(c.b))
		if v.Bool() != c.want {
			t.Errorf("%d %v %d = %v, want %v", c.a, c.op, c.b, v, c.want)
		}
	}
}

func TestDateArithmetic(t *testing.T) {
	d := MustDate("1995-01-01")
	v := mustApply(t, OpAdd, d, NewInt(31))
	if v.DateString() != "1995-02-01" {
		t.Errorf("date+31 = %v", v.DateString())
	}
	v = mustApply(t, OpSub, MustDate("1995-02-01"), MustDate("1995-01-01"))
	if v.Kind() != KindInt || v.Int() != 31 {
		t.Errorf("date-date = %v", v)
	}
	if _, err := Apply(OpMul, d, NewInt(2)); err == nil {
		t.Fatal("date*int must error")
	}
}

func TestConcat(t *testing.T) {
	v := mustApply(t, OpConcat, NewString("a"), NewString("b"))
	if v.Str() != "ab" {
		t.Errorf("concat = %v", v)
	}
	v = mustApply(t, OpConcat, NewString("n="), NewInt(3))
	if v.Str() != "n=3" {
		t.Errorf("string||int = %v", v)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"PROMO BURNISHED", "PROMO%", true},
		{"STANDARD", "PROMO%", false},
		{"special requests", "%special%requests%", true},
		{"special orders", "%special%requests%", false},
		{"abc", "a_c", true},
		{"abbc", "a_c", false},
		{"", "%", true},
		{"", "", true},
		{"x", "", false},
		{"Brand#12", "brand#1_", true}, // case-insensitive
		{"aXbYc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// likeLowered is LIKE as it was defined before ASCII folding: both strings
// lowercased, then matched byte by byte.
func likeLowered(s, p string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(p))
}

// TestLikeMatchesLoweredDefinition draws strings and patterns from an
// alphabet of both cases, the wildcards and non-ASCII letters (one whose
// lowercase has another byte length, one that lowercases to ASCII) and
// checks Like against lowercasing both strings first.
func TestLikeMatchesLoweredDefinition(t *testing.T) {
	alphabet := []string{"a", "A", "b", "B", "z", "%", "_", " ", "é", "É", "Ⱥ", "K", "ß"}
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, wild bool) string {
		var b strings.Builder
		for i := rng.Intn(n); i >= 0; i-- {
			c := alphabet[rng.Intn(len(alphabet))]
			if !wild && (c == "%" || c == "_") {
				c = "a"
			}
			b.WriteString(c)
		}
		return b.String()
	}
	for i := 0; i < 20000; i++ {
		s, p := draw(8, false), draw(6, true)
		if rng.Intn(3) == 0 {
			s, p = strings.ToUpper(s), strings.ToLower(p)
		}
		if got, want := Like(s, p), likeLowered(s, p); got != want {
			t.Fatalf("Like(%q, %q) = %v, lowered definition %v", s, p, got, want)
		}
	}
}

// TestLikeASCIIAllocs: matching ASCII strings of either case allocates
// nothing.
func TestLikeASCIIAllocs(t *testing.T) {
	matched := 0
	allocs := testing.AllocsPerRun(100, func() {
		if Like("PROMO BURNISHED COPPER", "promo%") && !Like("Standard Polished Tin", "PROMO%") {
			matched++
		}
	})
	if matched == 0 {
		t.Fatal("Like answered wrong")
	}
	if allocs != 0 {
		t.Errorf("Like on ASCII strings allocates %v times, want 0", allocs)
	}
}

func TestNegate(t *testing.T) {
	if v, _ := Negate(NewInt(5)); v.Int() != -5 {
		t.Errorf("-5 = %v", v)
	}
	if v, _ := Negate(NewFloat(2.5)); v.Float() != -2.5 {
		t.Errorf("-2.5 = %v", v)
	}
	if v, _ := Negate(Null); !v.IsNull() {
		t.Errorf("-NULL = %v", v)
	}
	if _, err := Negate(NewString("x")); err == nil {
		t.Fatal("negating a string must error")
	}
}

// Property: a+b == b+a and (a+b)-b == a for random ints (commutativity and
// inverse), exercising Apply end to end.
func TestArithmeticProperties(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := NewInt(int64(a)), NewInt(int64(b))
		s1, err1 := Apply(OpAdd, va, vb)
		s2, err2 := Apply(OpAdd, vb, va)
		if err1 != nil || err2 != nil || !Equal(s1, s2) {
			return false
		}
		d, err := Apply(OpSub, s1, vb)
		return err == nil && Equal(d, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison trichotomy — exactly one of <, =, > holds.
func TestTrichotomyProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		lt := mustTruthy(Apply(OpLt, va, vb))
		eq := mustTruthy(Apply(OpEq, va, vb))
		gt := mustTruthy(Apply(OpGt, va, vb))
		n := 0
		for _, x := range []bool{lt, eq, gt} {
			if x {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mustTruthy(v Value, err error) bool {
	if err != nil {
		panic(err)
	}
	return v.Truthy()
}

func TestBinaryOpString(t *testing.T) {
	if OpAdd.String() != "+" || OpNe.String() != "<>" || OpAnd.String() != "AND" {
		t.Fatal("operator rendering broken")
	}
	if !OpLe.IsComparison() || OpAdd.IsComparison() {
		t.Fatal("IsComparison broken")
	}
}
