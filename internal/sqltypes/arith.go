package sqltypes

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// ErrArithmeticOverflow is returned when integer arithmetic or SUM
// accumulation exceeds the int64 range, matching T-SQL's "Arithmetic
// overflow error" rather than wrapping silently.
var ErrArithmeticOverflow = errors.New("sqltypes: arithmetic overflow")

// AddInt64 returns a + b, or ErrArithmeticOverflow if the sum does not fit
// in an int64.
func AddInt64(a, b int64) (int64, error) {
	s := a + b
	// Overflow iff both operands share a sign the sum does not.
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, ErrArithmeticOverflow
	}
	return s, nil
}

// SubInt64 returns a - b with overflow checking.
func SubInt64(a, b int64) (int64, error) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, ErrArithmeticOverflow
	}
	return d, nil
}

// MulInt64 returns a * b with overflow checking.
func MulInt64(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, ErrArithmeticOverflow
	}
	return p, nil
}

// BinaryOp enumerates binary operators of the expression language.
type BinaryOp uint8

const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpConcat
	OpLike
)

func (op BinaryOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpConcat:
		return "||"
	case OpLike:
		return "LIKE"
	}
	return "?"
}

// IsComparison reports whether op is one of the six comparison operators.
func (op BinaryOp) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Apply evaluates a binary operator with SQL three-valued semantics:
// any NULL operand yields NULL, except AND/OR which follow Kleene logic.
func Apply(op BinaryOp, a, b Value) (Value, error) {
	switch op {
	case OpAnd:
		return and3(a, b), nil
	case OpOr:
		return or3(a, b), nil
	}
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return arith(op, a, b)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return compare3(op, a, b), nil
	case OpConcat:
		return NewString(a.Display() + b.Display()), nil
	case OpLike:
		if a.Kind() != KindString || b.Kind() != KindString {
			return Null, nil
		}
		return NewBool(Like(a.Str(), b.Str())), nil
	}
	return Null, fmt.Errorf("sqltypes: unsupported operator %v", op)
}

// Between evaluates v [NOT] BETWEEN lo AND hi: v >= lo, v <= hi, Kleene AND,
// then the optional NOT. It is the one definition the compiled expression,
// the constant folder and the bound predicate kernels share; comparisons and
// AND/NOT cannot fail, so neither can it.
func Between(v, lo, hi Value, negate bool) Value {
	res := and3(compare3(OpGe, v, lo), compare3(OpLe, v, hi))
	if negate {
		res = Not(res)
	}
	return res
}

// compare3 is the comparison arm of Apply: NULL when either side is NULL or
// the kinds are incomparable.
func compare3(op BinaryOp, a, b Value) Value {
	c, ok := Compare(a, b)
	if !ok {
		return Null
	}
	return NewBool(CmpHolds(op, c))
}

// CmpHolds reports whether a Compare result c satisfies comparison op.
func CmpHolds(op BinaryOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

func arith(op BinaryOp, a, b Value) (Value, error) {
	// DATE +/- INT yields DATE (day arithmetic); DATE - DATE yields INT days.
	if a.Kind() == KindDate || b.Kind() == KindDate {
		return dateArith(op, a, b)
	}
	if a.Kind() == KindInt && b.Kind() == KindInt {
		ai, bi := a.Int(), b.Int()
		switch op {
		case OpAdd:
			s, err := AddInt64(ai, bi)
			if err != nil {
				return Null, err
			}
			return NewInt(s), nil
		case OpSub:
			d, err := SubInt64(ai, bi)
			if err != nil {
				return Null, err
			}
			return NewInt(d), nil
		case OpMul:
			p, err := MulInt64(ai, bi)
			if err != nil {
				return Null, err
			}
			return NewInt(p), nil
		case OpDiv:
			if bi == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			if ai == math.MinInt64 && bi == -1 {
				return Null, ErrArithmeticOverflow
			}
			return NewInt(ai / bi), nil
		case OpMod:
			if bi == 0 {
				return Null, fmt.Errorf("sqltypes: division by zero")
			}
			return NewInt(ai % bi), nil
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return Null, fmt.Errorf("sqltypes: %v not defined for %s and %s", op, a.Kind(), b.Kind())
	}
	switch op {
	case OpAdd:
		return NewFloat(af + bf), nil
	case OpSub:
		return NewFloat(af - bf), nil
	case OpMul:
		return NewFloat(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewFloat(af / bf), nil
	case OpMod:
		bi := int64(bf)
		if bi == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewInt(int64(af) % bi), nil
	}
	return Null, fmt.Errorf("sqltypes: unsupported arithmetic %v", op)
}

func dateArith(op BinaryOp, a, b Value) (Value, error) {
	switch {
	case a.Kind() == KindDate && b.Kind() == KindInt:
		switch op {
		case OpAdd:
			return NewDate(a.Int() + b.Int()), nil
		case OpSub:
			return NewDate(a.Int() - b.Int()), nil
		}
	case a.Kind() == KindInt && b.Kind() == KindDate && op == OpAdd:
		return NewDate(a.Int() + b.Int()), nil
	case a.Kind() == KindDate && b.Kind() == KindDate && op == OpSub:
		return NewInt(a.Int() - b.Int()), nil
	}
	return Null, fmt.Errorf("sqltypes: %v not defined for %s and %s", op, a.Kind(), b.Kind())
}

// and3 implements Kleene AND: FALSE dominates NULL.
func and3(a, b Value) Value {
	af, at := boolState(a)
	bf, bt := boolState(b)
	if af || bf {
		return NewBool(false)
	}
	if at && bt {
		return NewBool(true)
	}
	return Null
}

// or3 implements Kleene OR: TRUE dominates NULL.
func or3(a, b Value) Value {
	af, at := boolState(a)
	bf, bt := boolState(b)
	if at || bt {
		return NewBool(true)
	}
	if af && bf {
		return NewBool(false)
	}
	return Null
}

// boolState reports (isFalse, isTrue); NULL and non-bools are (false,false).
func boolState(v Value) (isFalse, isTrue bool) {
	if v.Kind() != KindBool {
		return false, false
	}
	if v.Bool() {
		return false, true
	}
	return true, false
}

// Negate returns the arithmetic negation of v (NULL for NULL).
func Negate(v Value) (Value, error) {
	switch v.Kind() {
	case KindNull:
		return Null, nil
	case KindInt:
		if v.Int() == math.MinInt64 {
			return Null, ErrArithmeticOverflow
		}
		return NewInt(-v.Int()), nil
	case KindFloat:
		return NewFloat(-v.Float()), nil
	}
	return Null, fmt.Errorf("sqltypes: cannot negate %s", v.Kind())
}

// Not returns Kleene NOT of v.
func Not(v Value) Value {
	if v.Kind() != KindBool {
		return Null
	}
	return NewBool(!v.Bool())
}

// Like implements SQL LIKE with % (any run) and _ (any one char) wildcards,
// case-insensitively (matching typical default collations). When both
// strings are ASCII the matcher folds case byte by byte and allocates
// nothing; otherwise both are lowercased first, since lowercasing a
// non-ASCII string can change its byte length.
func Like(s, pattern string) bool {
	if isASCII(s) && isASCII(pattern) {
		return likeMatch(s, pattern)
	}
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// lowerASCII folds an ASCII upper-case letter; every other byte, including
// those of multi-byte UTF-8 sequences, is returned as is.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func likeMatch(s, p string) bool {
	// Dynamic-programming free two-pointer matcher with backtracking on %.
	var si, pi int
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || lowerASCII(p[pi]) == lowerASCII(s[si])):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star != -1:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
