package exec

import (
	"fmt"
	"strings"

	"aggify/internal/sqltypes"
)

// This file is the engine's one implementation of "does this row pass":
// scans, FilterOp and DML all evaluate a WHERE or HAVING clause through a
// Predicate. The planner splits a filter conjunction into conjuncts and
// compiles each one either to a kernel — `column <cmp> invariant`, BETWEEN,
// IN (invariants), IS [NOT] NULL, where an invariant cannot change while the
// operator is open — or, for any other shape, to its generic Scalar closure.
// A kernel reads row[Ord] directly and evaluates each invariant once per
// Open, at the first row that reaches it, so the errors an invariant raises
// (unbound parameter, overflow in `@from + 90`) surface exactly where the
// per-row closure raised them: never on empty input, never behind a
// conjunct that short-circuits.

// Shape enumerates the kernel forms of a conjunct.
type Shape uint8

const (
	// ShapeGeneric evaluates Conjunct.Generic on the whole row.
	ShapeGeneric Shape = iota
	// ShapeCompare is row[Ord] Op Args[0].
	ShapeCompare
	// ShapeBetween is row[Ord] [NOT] BETWEEN Args[0] AND Args[1].
	ShapeBetween
	// ShapeIn is row[Ord] [NOT] IN (Args...).
	ShapeIn
	// ShapeIsNull is row[Ord] IS [NOT] NULL.
	ShapeIsNull
)

// Conjunct is one AND-ed term of a Predicate, in evaluation order.
type Conjunct struct {
	Shape   Shape
	Generic Scalar            // ShapeGeneric only
	Ord     int               // column ordinal in the current row
	Op      sqltypes.BinaryOp // ShapeCompare: comparison with the column on the left
	Negate  bool              // NOT BETWEEN / NOT IN / IS NOT NULL
	Args    []Scalar          // row-invariant operands; evaluated with a nil row
	// End marks the last conjunct of one filter expression. Inside an
	// expression a NULL conjunct keeps evaluating its right-hand siblings
	// (Kleene AND: only FALSE short-circuits, so a later conjunct may still
	// raise its error) and rejects the row at End; stacked filters each end
	// their own expression, so NULL rejects before the next filter runs.
	End bool

	off int // index of Args[0] in BoundPredicate.args
}

// Predicate is the compiled, immutable form of a filter; it is shared by
// every execution of a cached plan. Per-execution state lives in a
// BoundPredicate owned by the operator instance.
type Predicate struct {
	conj  []Conjunct
	nargs int
}

// NewPredicate builds a predicate over conjuncts in evaluation order. The
// last conjunct always ends an expression.
func NewPredicate(conj []Conjunct) *Predicate {
	p := &Predicate{conj: conj}
	for i := range conj {
		conj[i].off = p.nargs
		p.nargs += len(conj[i].Args)
	}
	if len(conj) > 0 {
		conj[len(conj)-1].End = true
	}
	return p
}

// boundArg is one invariant's value for the current Open.
type boundArg struct {
	val sqltypes.Value
	ok  bool
}

// BoundPredicate is a Predicate plus the invariants bound so far. Operators
// embed one and Reset it at Open; the zero value matches every row.
type BoundPredicate struct {
	p    *Predicate
	args []boundArg
}

// Reset points b at p (nil = match everything) and forgets every bound
// invariant, so a re-opened operator re-reads parameters and outer rows.
func (b *BoundPredicate) Reset(p *Predicate) {
	b.p = p
	if p == nil {
		return
	}
	if len(b.args) != p.nargs {
		b.args = make([]boundArg, p.nargs)
		return
	}
	clear(b.args)
}

// arg returns invariant i of conjunct c, evaluating it on first use.
func (b *BoundPredicate) arg(ctx *Ctx, c *Conjunct, i int) (*sqltypes.Value, error) {
	a := &b.args[c.off+i]
	if !a.ok {
		v, err := c.Args[i](ctx, nil)
		if err != nil {
			return nil, err
		}
		a.val, a.ok = v, true
	}
	return &a.val, nil
}

// Match reports whether row satisfies the predicate: every conjunct TRUE.
// The conjuncts are evaluated in order.
func (b *BoundPredicate) Match(ctx *Ctx, row Row) (bool, error) {
	if b.p == nil {
		return true, nil
	}
	unknown := false
	conj := b.p.conj
	for k := range conj {
		c := &conj[k]
		var r tri
		if c.Shape == ShapeGeneric {
			v, err := c.Generic(ctx, row)
			if err != nil {
				return false, err
			}
			r = triOf(v)
		} else {
			var err error
			if r, err = b.kernel(ctx, c, &row[c.Ord]); err != nil {
				return false, err
			}
		}
		if r == triFalse {
			return false, nil
		}
		if r == triNull {
			unknown = true
		}
		if unknown && c.End {
			return false, nil
		}
	}
	return true, nil
}

// kernel evaluates one kernel conjunct on column value v.
func (b *BoundPredicate) kernel(ctx *Ctx, c *Conjunct, v *sqltypes.Value) (tri, error) {
	switch c.Shape {
	case ShapeCompare:
		a, err := b.arg(ctx, c, 0)
		if err != nil {
			return triNull, err
		}
		cmp, ok := compare(v, a)
		if !ok {
			return triNull, nil
		}
		return triBool(sqltypes.CmpHolds(c.Op, cmp)), nil
	case ShapeBetween:
		lo, err := b.arg(ctx, c, 0)
		if err != nil {
			return triNull, err
		}
		hi, err := b.arg(ctx, c, 1)
		if err != nil {
			return triNull, err
		}
		if k := v.Kind(); k == lo.Kind() && k == hi.Kind() && fastKind(k) {
			in := false
			if ge, _ := compare(v, lo); ge >= 0 {
				le, _ := compare(v, hi)
				in = le <= 0
			}
			return triBool(in != c.Negate), nil
		}
		return triOf(sqltypes.Between(*v, *lo, *hi, c.Negate)), nil
	case ShapeIn:
		// A NULL column never reaches the list, so its items stay unbound.
		if v.IsNull() {
			return triNull, nil
		}
		sawNull := false
		for i := range c.Args {
			a, err := b.arg(ctx, c, i)
			if err != nil {
				return triNull, err
			}
			cmp, ok := compare(v, a)
			if !ok {
				sawNull = true
			} else if cmp == 0 {
				return triBool(!c.Negate), nil
			}
		}
		if sawNull {
			return triNull, nil
		}
		return triBool(c.Negate), nil
	case ShapeIsNull:
		return triBool(v.IsNull() != c.Negate), nil
	}
	return triNull, fmt.Errorf("exec: predicate conjunct of shape %d has no kernel", c.Shape)
}

// fastKind reports the kinds compare orders without sqltypes.Compare.
func fastKind(k sqltypes.Kind) bool {
	return k == sqltypes.KindInt || k == sqltypes.KindDate || k == sqltypes.KindFloat || k == sqltypes.KindString
}

// compare is sqltypes.Compare with same-kind fast paths that read the two
// values in place; every other pairing (NULLs, int against float, a
// date-shaped string against a date, tuples) goes through Compare itself.
func compare(a, b *sqltypes.Value) (int, bool) {
	if k := a.Kind(); k == b.Kind() {
		switch k {
		case sqltypes.KindInt, sqltypes.KindDate:
			return threeWay(a.Int(), b.Int()), true
		case sqltypes.KindFloat:
			return threeWay(a.Float(), b.Float()), true
		case sqltypes.KindString:
			return strings.Compare(a.Str(), b.Str()), true
		}
	}
	return sqltypes.Compare(*a, *b)
}

// threeWay orders x and y as sqltypes.Compare does: a NaN is neither below
// nor above anything, so it compares equal.
func threeWay[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// tri is a three-valued truth value.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triNull
)

func triBool(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// triOf maps a scalar result to its truth value; like Kleene AND and
// Value.Truthy, anything that is not a boolean counts as unknown.
func triOf(v sqltypes.Value) tri {
	if v.Kind() != sqltypes.KindBool {
		return triNull
	}
	return triBool(v.Bool())
}
