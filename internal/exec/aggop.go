package exec

import (
	"fmt"

	"aggify/internal/sqltypes"
)

// AggInstance pairs an aggregate spec with its compiled argument scalars.
type AggInstance struct {
	Spec *AggSpec
	Args []Scalar
	Star bool // COUNT(*): no arguments are evaluated
}

// step folds one row, reusing buf for argument evaluation (Step
// implementations must not retain the slice).
func (ai *AggInstance) step(ctx *Ctx, agg Aggregator, row Row, buf []sqltypes.Value) error {
	if ai.Star {
		return agg.Step(ctx, nil)
	}
	for i, s := range ai.Args {
		v, err := s(ctx, row)
		if err != nil {
			return err
		}
		buf[i] = v
	}
	return agg.Step(ctx, buf[:len(ai.Args)])
}

// argBuffers allocates one reusable argument buffer per aggregate.
func argBuffers(aggs []AggInstance) [][]sqltypes.Value {
	out := make([][]sqltypes.Value, len(aggs))
	for i, ai := range aggs {
		out[i] = make([]sqltypes.Value, len(ai.Args))
	}
	return out
}

// HashAggOp groups its input by GroupKeys and folds each group through the
// aggregates. With no group keys it is a scalar aggregate: exactly one
// output row, produced even for empty input (Init + Terminate only — the
// semantics Aggify's empty-cursor case relies on). A scalar aggregate keeps
// its aggregator instances and argument buffers across re-Opens and Resets
// them, so a correlated subquery re-opened per outer row creates its
// aggregates (and a compiled aggregate its machine) once.
type HashAggOp struct {
	Child     Operator
	GroupKeys []Scalar
	Aggs      []AggInstance

	groups []Row
	pos    int
	bufs   [][]sqltypes.Value
	scalar *aggGroup // the one group of a scalar aggregate, reused
}

// BufferedRows reports the number of materialized groups.
func (o *HashAggOp) BufferedRows() int { return len(o.groups) }

// aggGroup is one group's keys and aggregator instances.
type aggGroup struct {
	keys []sqltypes.Value
	aggs []Aggregator
}

// newAggs creates and initializes one instance of each aggregate.
func newAggs(aggs []AggInstance) []Aggregator {
	out := make([]Aggregator, len(aggs))
	for i, ai := range aggs {
		out[i] = ai.Spec.New()
		out[i].Reset()
	}
	return out
}

// resetAggs re-initializes aggregator instances for another pass.
func resetAggs(aggs []Aggregator) {
	for _, a := range aggs {
		a.Reset()
	}
}

// Open implements Operator: it consumes the child entirely, one row per
// Step, checking for cancellation every refillRows rows.
func (o *HashAggOp) Open(ctx *Ctx) error {
	clear(o.groups)
	o.groups = o.groups[:0]
	o.pos = 0
	if o.bufs == nil {
		o.bufs = argBuffers(o.Aggs)
	}
	if err := o.Child.Open(ctx); err != nil {
		return err
	}
	defer o.Child.Close()

	var table map[uint64][]*aggGroup
	var order []*aggGroup // preserve first-seen group order for determinism
	if len(o.GroupKeys) == 0 {
		if o.scalar == nil {
			o.scalar = &aggGroup{aggs: newAggs(o.Aggs)}
		} else {
			resetAggs(o.scalar.aggs)
		}
	} else {
		table = map[uint64][]*aggGroup{}
	}
	for n := 1; ; n++ {
		row, err := o.Child.Next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if n%refillRows == 0 && ctx.Interrupted() {
			return ErrInterrupted
		}
		g := o.scalar
		if table != nil {
			keys := make([]sqltypes.Value, len(o.GroupKeys))
			for i, k := range o.GroupKeys {
				if keys[i], err = k(ctx, row); err != nil {
					return err
				}
			}
			h := sqltypes.HashRow(keys)
			g = nil
			for _, cand := range table[h] {
				if sqltypes.RowsGroupEqual(cand.keys, keys) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &aggGroup{keys: keys, aggs: newAggs(o.Aggs)}
				table[h] = append(table[h], g)
				order = append(order, g)
			}
		}
		for i := range o.Aggs {
			if err := o.Aggs[i].step(ctx, g.aggs[i], row, o.bufs[i]); err != nil {
				return err
			}
		}
	}
	if table == nil {
		return o.emit(ctx, o.scalar)
	}
	for _, g := range order {
		if err := o.emit(ctx, g); err != nil {
			return err
		}
	}
	return nil
}

// emit terminates g's aggregates into a fresh output row: consumers may
// keep the rows they are handed.
func (o *HashAggOp) emit(ctx *Ctx, g *aggGroup) error {
	out := make(Row, len(g.keys)+len(g.aggs))
	copy(out, g.keys)
	for i, a := range g.aggs {
		v, err := a.Result(ctx)
		if err != nil {
			return err
		}
		out[len(g.keys)+i] = v
	}
	o.groups = append(o.groups, out)
	return nil
}

// Next implements Operator.
func (o *HashAggOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.groups) {
		return nil, nil
	}
	r := o.groups[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator. It keeps the group buffer's capacity for a
// re-Open.
func (o *HashAggOp) Close() {
	clear(o.groups)
	o.groups = o.groups[:0]
}

// StreamAggOp is the streaming aggregate operator: it folds its input in
// arrival order, emitting a group whenever the group keys change. Its input
// must already be grouped (sorted) by the keys. This is the operator the
// Aggify rewrite rule (paper Eq. 6) enforces for order-sensitive custom
// aggregates: the input order is exactly the order Accumulate observes.
type StreamAggOp struct {
	Child     Operator
	GroupKeys []Scalar
	Aggs      []AggInstance

	curKeys  []sqltypes.Value
	curAggs  []Aggregator
	started  bool
	childEOF bool
	emitted  bool // scalar-aggregate case: one row emitted
	bufs     [][]sqltypes.Value
	// scalarAggs are the instances of a scalar aggregate (no group keys),
	// kept across re-Opens and Reset for each pass.
	scalarAggs []Aggregator
}

// Open implements Operator.
func (o *StreamAggOp) Open(ctx *Ctx) error {
	o.curKeys = nil
	o.curAggs = nil
	o.started = false
	o.childEOF = false
	o.emitted = false
	if o.bufs == nil {
		o.bufs = argBuffers(o.Aggs)
	}
	return o.Child.Open(ctx)
}

// freshAggs returns initialized aggregator instances for the next group: a
// new set per group, or the scalar aggregate's one set, Reset.
func (o *StreamAggOp) freshAggs() []Aggregator {
	if len(o.GroupKeys) > 0 {
		return newAggs(o.Aggs)
	}
	if o.scalarAggs == nil {
		o.scalarAggs = newAggs(o.Aggs)
	} else {
		resetAggs(o.scalarAggs)
	}
	return o.scalarAggs
}

func (o *StreamAggOp) result(ctx *Ctx) (Row, error) {
	out := make(Row, len(o.curKeys)+len(o.curAggs))
	copy(out, o.curKeys)
	for i, a := range o.curAggs {
		v, err := a.Result(ctx)
		if err != nil {
			return nil, err
		}
		out[len(o.curKeys)+i] = v
	}
	return out, nil
}

// Next implements Operator.
func (o *StreamAggOp) Next(ctx *Ctx) (Row, error) {
	if o.childEOF {
		return nil, nil
	}
	n := 0
	for {
		n++
		if n%1024 == 0 && ctx.Interrupted() {
			return nil, ErrInterrupted
		}
		row, err := o.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if row == nil {
			o.childEOF = true
			o.Child.Close()
			if len(o.GroupKeys) == 0 {
				// Scalar aggregate: always exactly one row.
				if o.emitted {
					return nil, nil
				}
				o.emitted = true
				if !o.started {
					o.curAggs = o.freshAggs()
				}
				return o.result(ctx)
			}
			if o.started {
				o.started = false
				return o.result(ctx)
			}
			return nil, nil
		}
		var keys []sqltypes.Value
		if len(o.GroupKeys) > 0 {
			keys = make([]sqltypes.Value, len(o.GroupKeys))
			for i, k := range o.GroupKeys {
				if keys[i], err = k(ctx, row); err != nil {
					return nil, err
				}
			}
		}
		var emit Row
		if o.started && len(o.GroupKeys) > 0 && !sqltypes.RowsGroupEqual(keys, o.curKeys) {
			if emit, err = o.result(ctx); err != nil {
				return nil, err
			}
			o.started = false
		}
		if !o.started {
			o.curKeys = keys
			o.curAggs = o.freshAggs()
			o.started = true
			if len(o.GroupKeys) == 0 {
				o.emitted = false
			}
		}
		for i := range o.Aggs {
			if err := o.Aggs[i].step(ctx, o.curAggs[i], row, o.bufs[i]); err != nil {
				return nil, err
			}
		}
		if emit != nil {
			return emit, nil
		}
	}
}

// Close implements Operator.
func (o *StreamAggOp) Close() {
	if !o.childEOF {
		o.Child.Close()
	}
}

// RecursiveCTEOp evaluates a recursive common table expression with UNION
// ALL semantics: the seed runs once; then the recursive branch runs against
// the previous iteration's delta until it yields no rows. It backs the
// paper's §8.1 FOR-loop lifting.
type RecursiveCTEOp struct {
	Seed      Operator
	Recursive Operator
	// Delta is shared with the DeltaScanOp leaves inside Recursive.
	Delta *[]Row
	// MaxIterations caps runaway recursion (0 = default 1e6).
	MaxIterations int

	out []Row
	pos int
}

// BufferedRows reports the rows spooled into the CTE worktable.
func (o *RecursiveCTEOp) BufferedRows() int { return len(o.out) }

// Open implements Operator.
func (o *RecursiveCTEOp) Open(ctx *Ctx) error {
	o.out = nil
	o.pos = 0
	limit := o.MaxIterations
	if limit <= 0 {
		limit = 1_000_000
	}
	seedRows, err := Drain(ctx, o.Seed)
	if err != nil {
		return err
	}
	o.out = append(o.out, seedRows...)
	delta := seedRows
	for iter := 0; len(delta) > 0; iter++ {
		if iter >= limit {
			return fmt.Errorf("exec: recursive CTE exceeded %d iterations", limit)
		}
		if ctx.Interrupted() {
			return ErrInterrupted
		}
		*o.Delta = delta
		next, err := Drain(ctx, o.Recursive)
		if err != nil {
			return err
		}
		o.out = append(o.out, next...)
		delta = next
	}
	return nil
}

// Next implements Operator.
func (o *RecursiveCTEOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.out) {
		return nil, nil
	}
	r := o.out[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *RecursiveCTEOp) Close() { o.out = nil }
