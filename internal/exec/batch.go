package exec

import "aggify/internal/sqltypes"

// This file defines the vectorized half of the operator contract: column-
// oriented row batches, the optional BatchOperator interface, and the
// adapter that lets any row-at-a-time operator participate in a batched
// plan. The executor stays a pull model — a batch consumer calls NextBatch
// instead of Next and receives ~DefaultBatchSize rows per call — so the
// per-row costs the paper attributes to cursor-style iteration (interface
// dispatch, per-row channel sends, per-row closure evaluation) are paid
// once per batch instead.

// DefaultBatchSize is the target number of rows per batch. It matches the
// executor's long-standing interrupt-check stride, so a cancelled query
// stops within one batch on either execution path.
const DefaultBatchSize = 1024

// Column is one column of a batch: a value vector plus a null bitmap.
// NULLs are stored both ways — Vals[i] is the NULL value and bit i is set —
// so row-oriented consumers can read Vals directly while vectorized
// aggregates test the bitmap without inspecting each value.
type Column struct {
	Vals []sqltypes.Value

	nulls    []uint64
	hasNulls bool
}

// Append adds one value to the column, maintaining the null bitmap.
func (c *Column) Append(v sqltypes.Value) {
	i := len(c.Vals)
	c.Vals = append(c.Vals, v)
	if word := i >> 6; word >= len(c.nulls) {
		c.nulls = append(c.nulls, 0)
	}
	if v.IsNull() {
		c.nulls[i>>6] |= 1 << (uint(i) & 63)
		c.hasNulls = true
	}
}

// Null reports whether value i is NULL, from the bitmap.
func (c *Column) Null(i int) bool {
	if !c.hasNulls {
		return false
	}
	return c.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any value in the column is NULL.
func (c *Column) HasNulls() bool { return c.hasNulls }

// NullCount counts the NULLs in the column via the bitmap.
func (c *Column) NullCount() int {
	if !c.hasNulls {
		return 0
	}
	n := 0
	for i := range c.Vals {
		if c.nulls[i>>6]&(1<<(uint(i)&63)) != 0 {
			n++
		}
	}
	return n
}

func (c *Column) reset() {
	c.Vals = c.Vals[:0]
	for i := range c.nulls {
		c.nulls[i] = 0
	}
	c.hasNulls = false
}

// Batch is a column-oriented block of rows. All columns have the same
// length. A batch returned by NextBatch is owned by the producer and valid
// only until the next NextBatch (or Close) call on that operator; consumers
// that retain rows across calls must copy them out (see Row and Clone).
type Batch struct {
	Cols []Column
	n    int
}

// NewBatch returns an empty batch with the given column count.
func NewBatch(width int) *Batch {
	return &Batch{Cols: make([]Column, width)}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// Reset empties the batch, re-shaping it to width columns.
func (b *Batch) Reset(width int) {
	if len(b.Cols) != width {
		b.Cols = make([]Column, width)
	} else {
		for i := range b.Cols {
			b.Cols[i].reset()
		}
	}
	b.n = 0
}

// AppendRow adds one row across all columns. The row must match the batch
// width; values are copied, so the caller may reuse the slice.
func (b *Batch) AppendRow(row Row) {
	for i := range b.Cols {
		b.Cols[i].Append(row[i])
	}
	b.n++
}

// appendFrom copies row i of src (same width) onto the end of the batch.
func (b *Batch) appendFrom(src *Batch, i int) {
	for j := range b.Cols {
		b.Cols[j].Append(src.Cols[j].Vals[i])
	}
	b.n++
}

// Row materializes row i into buf (grown as needed) and returns it. The
// result aliases buf, not the batch, so it survives batch reuse only as
// long as buf does.
func (b *Batch) Row(i int, buf Row) Row {
	if cap(buf) < len(b.Cols) {
		buf = make(Row, len(b.Cols))
	}
	buf = buf[:len(b.Cols)]
	for j := range b.Cols {
		buf[j] = b.Cols[j].Vals[i]
	}
	return buf
}

// Rows materializes every row of the batch into freshly allocated slices
// backed by one slab — the unpack path for row-oriented consumers.
func (b *Batch) Rows() []Row {
	w := len(b.Cols)
	slab := make([]sqltypes.Value, b.n*w)
	out := make([]Row, b.n)
	for i := 0; i < b.n; i++ {
		r := slab[i*w : (i+1)*w : (i+1)*w]
		for j := 0; j < w; j++ {
			r[j] = b.Cols[j].Vals[i]
		}
		out[i] = r
	}
	return out
}

// BatchOperator is the vectorized extension of Operator. NextBatch returns
// the next block of rows, or nil at end of stream; the returned batch is
// reused by the producer across calls. Implementations must check
// Ctx.Interrupted at every batch boundary — batch consumers bypass Next and
// its per-row interrupt stride entirely.
type BatchOperator interface {
	Operator
	NextBatch(ctx *Ctx) (*Batch, error)
}

// batchCapable is implemented by operators whose NextBatch is native end to
// end (pass-through transformers report their child's capability). CanBatch
// consults it so consumers and the planner agree on which plans take the
// vectorized path.
type batchCapable interface {
	BatchCapable() bool
}

// CanBatch reports whether op produces batches natively, i.e. without a
// row-at-a-time adapter anywhere beneath it. Consumers use it to pick the
// vectorized path only when it actually avoids per-row iteration; AdaptBatch
// remains available for mixed trees that want batch transport regardless.
func CanBatch(op Operator) bool {
	if bc, ok := op.(batchCapable); ok {
		return bc.BatchCapable()
	}
	return false
}

// AdaptBatch lifts any row-at-a-time operator into the batch contract by
// packing its rows into reusable DefaultBatchSize batches. It is the
// compatibility shim that keeps every existing operator usable in a batched
// plan (mixed trees) without modification. Width is taken from the first
// row.
type AdaptBatch struct {
	Child Operator

	batch *Batch
	first Row
	eof   bool
}

// Open implements Operator.
func (o *AdaptBatch) Open(ctx *Ctx) error {
	o.first = nil
	o.eof = false
	return o.Child.Open(ctx)
}

// Next implements Operator (pass-through, so the adapter is still usable as
// a plain row operator).
func (o *AdaptBatch) Next(ctx *Ctx) (Row, error) { return o.Child.Next(ctx) }

// NextBatch implements BatchOperator.
func (o *AdaptBatch) NextBatch(ctx *Ctx) (*Batch, error) {
	if o.eof {
		return nil, nil
	}
	if ctx.Interrupted() {
		return nil, ErrInterrupted
	}
	row := o.first
	o.first = nil
	if row == nil {
		var err error
		if row, err = o.Child.Next(ctx); err != nil {
			return nil, err
		}
		if row == nil {
			o.eof = true
			return nil, nil
		}
	}
	if o.batch == nil {
		o.batch = NewBatch(len(row))
	}
	b := o.batch
	b.Reset(len(row))
	b.AppendRow(row)
	for b.Len() < DefaultBatchSize {
		r, err := o.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			o.eof = true
			break
		}
		b.AppendRow(r)
	}
	return b, nil
}

// Close implements Operator.
func (o *AdaptBatch) Close() { o.Child.Close() }

// batchOf returns op itself when it is a native batch producer, or an
// AdaptBatch wrapper otherwise. The result shares op's Open/Close, so use
// either the wrapper or the wrapped operator for lifecycle calls — not both.
func batchOf(op Operator) BatchOperator {
	if CanBatch(op) {
		return op.(BatchOperator)
	}
	return &AdaptBatch{Child: op}
}
