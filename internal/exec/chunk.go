package exec

import (
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Reject implements storage.ChunkFilter for a scan's predicate. It runs the
// leading run of comparison and BETWEEN kernels whose column is chunked and
// whose invariants are bound and compare with the column's kind as typed
// loops over the column chunks, with Match's own Kleene AND: a conjunct
// that is FALSE rejects the row, one that is NULL rejects it at the end of
// its expression. The run stops at the first conjunct it cannot evaluate
// that way, so a row is rejected only where Match would reject it; every
// other row goes through Match, which binds the invariants not bound yet at
// the first row that reaches them. When the run stopped at such an
// invariant, Reject asks to run again after the next delivered row.
func (b *BoundPredicate) Reject(cur *storage.Cursor, n int, rej *storage.Bitmap) bool {
	if b.p == nil {
		return false
	}
	var fail, unk storage.Bitmap
	words := (n + 63) >> 6
	for k := range b.p.conj {
		c := &b.p.conj[k]
		if c.Shape != ShapeCompare && c.Shape != ShapeBetween {
			return false
		}
		for i := range c.Args {
			if !b.args[c.off+i].ok {
				return true
			}
		}
		col := cur.Column(c.Ord)
		if col == nil || !b.failChunk(c, col, n, &fail) {
			return false
		}
		for w := 0; w < words; w++ {
			null := col.Null[w]
			rej[w] |= fail[w] &^ null
			unk[w] |= null
			if c.End {
				rej[w] |= unk[w]
				unk[w] = 0
			}
		}
	}
	return false
}

// failChunk sets fail to the slots of col's first n whose value makes
// conjunct c FALSE, reading NULL slots as anything. It reports false when
// an invariant does not compare with the column's kind in place.
func (b *BoundPredicate) failChunk(c *Conjunct, col *storage.ColChunk, n int, fail *storage.Bitmap) bool {
	var ops [2]int64
	var fops [2]float64
	for i := range c.Args {
		var ok bool
		if ops[i], fops[i], ok = b.args[c.off+i].operand(col.Kind); !ok {
			return false
		}
	}
	if col.Kind == sqltypes.KindFloat {
		if c.Shape == ShapeBetween {
			failBetween(col.Floats[:n], fops[0], fops[1], c.Negate, fail)
		} else {
			failCompare(col.Floats[:n], c.Op, fops[0], fail)
		}
		return true
	}
	if c.Shape == ShapeBetween {
		failBetween(col.Ints[:n], ops[0], ops[1], c.Negate, fail)
	} else {
		failCompare(col.Ints[:n], c.Op, ops[0], fail)
	}
	return true
}

// operand returns the invariant as a column of the given kind compares
// with it: an Int or Date against its own kind, a date-shaped string
// against a Date, an Int or Float against a Float. ok is false for any
// other pairing, and for a string that does not parse as a date.
func (a *boundArg) operand(kind sqltypes.Kind) (i int64, f float64, ok bool) {
	v := &a.val
	if kind == sqltypes.KindDate {
		v = a.forDate()
	}
	switch {
	case v.Kind() == kind && kind != sqltypes.KindFloat:
		return v.Int(), 0, true
	case kind == sqltypes.KindFloat && v.Kind() == sqltypes.KindFloat:
		return 0, v.Float(), true
	case kind == sqltypes.KindFloat && v.Kind() == sqltypes.KindInt:
		return 0, float64(v.Int()), true
	}
	return 0, 0, false
}

// failCompare marks the xs for which `x op a` is FALSE, ordering them as
// sqltypes.CompareRef does.
func failCompare[T int64 | float64](xs []T, op sqltypes.BinaryOp, a T, fail *storage.Bitmap) {
	holds := [3]bool{sqltypes.CmpHolds(op, -1), sqltypes.CmpHolds(op, 0), sqltypes.CmpHolds(op, 1)}
	for w := range fail {
		var bits uint64
		for i, x := range xs[min(len(xs), w*64):min(len(xs), w*64+64)] {
			if !holds[threeWay(x, a)+1] {
				bits |= 1 << i
			}
		}
		fail[w] = bits
	}
}

// failBetween marks the xs for which `x [NOT] BETWEEN lo AND hi` is FALSE,
// as the kernel's same-kind path decides it.
func failBetween[T int64 | float64](xs []T, lo, hi T, negate bool, fail *storage.Bitmap) {
	for w := range fail {
		var bits uint64
		for i, x := range xs[min(len(xs), w*64):min(len(xs), w*64+64)] {
			if in := threeWay(x, lo) >= 0 && threeWay(x, hi) <= 0; in == negate {
				bits |= 1 << i
			}
		}
		fail[w] = bits
	}
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
