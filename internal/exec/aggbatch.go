package exec

import "aggify/internal/sqltypes"

// This file implements HashAggOp's vectorized aggregation fold. Instead of
// evaluating key and argument scalars and dispatching Aggregator.Step once
// per row, the fold consumes whole batches: group keys are read straight out of the
// batch's columns when the planner resolved them to ordinals, rows are
// bucketed into per-group selection vectors (in input order, so
// order-within-group — and with it float summation order — matches the row
// path exactly), and each builtin aggregate folds a whole selection through
// one StepBatch call. The per-row interface and closure costs that made
// row-at-a-time aggregation cursor-slow are paid once per group per batch.

// BatchWorthwhile reports whether the vectorized fold would actually cut
// per-row costs for an aggregation: every group key must be ordinal-resolved
// (nKeys == 0 or groupOrds non-nil) and every aggregate must fold whole
// selections through StepBatch — COUNT(*) or a single ordinal-resolved
// argument on an aggregate implementing BatchStepper. Anything else (custom
// aggregates with procedural Accumulate bodies, expression arguments) would
// pack rows into columns only to unpack them again per row, which is
// strictly worse than the row path; those plans keep it. The planner calls
// this to label plans, the aggregation operators to pick the path, so
// EXPLAIN and execution always agree.
func BatchWorthwhile(nKeys int, groupOrds []int, aggs []AggInstance) bool {
	if nKeys > 0 && groupOrds == nil {
		return false
	}
	for i := range aggs {
		ai := &aggs[i]
		if ai.Star {
			continue
		}
		if len(ai.ArgOrds) != 1 {
			return false
		}
		if _, ok := ai.Spec.New().(BatchStepper); !ok {
			return false
		}
	}
	return true
}

// batchAggFold accumulates batches into a group table, preserving first-seen
// group order.
type batchAggFold struct {
	groupKeys []Scalar
	groupOrds []int // when non-nil, input ordinal of every group key
	aggs      []AggInstance

	table map[uint64][]*aggGroup
	order []*aggGroup
	// scalar is the pre-created group of a scalar aggregate (no group keys),
	// so empty input still yields the Init+Terminate row.
	scalar *aggGroup

	keybuf  []sqltypes.Value
	rowbuf  Row
	bufs    [][]sqltypes.Value
	touched []*aggGroup
	allSel  []int
}

// newBatchAggFold builds a fold, pre-creating the scalar group for
// aggregations without group keys.
func newBatchAggFold(groupKeys []Scalar, groupOrds []int, aggs []AggInstance) *batchAggFold {
	f := &batchAggFold{
		groupKeys: groupKeys,
		groupOrds: groupOrds,
		aggs:      aggs,
		table:     map[uint64][]*aggGroup{},
		keybuf:    make([]sqltypes.Value, len(groupKeys)),
		bufs:      argBuffers(aggs),
	}
	if len(groupKeys) == 0 {
		f.scalar = f.newGroup(nil)
		f.order = append(f.order, f.scalar)
	}
	return f
}

func (f *batchAggFold) newGroup(keys []sqltypes.Value) *aggGroup {
	g := &aggGroup{keys: keys, aggs: make([]Aggregator, len(f.aggs))}
	for i, ai := range f.aggs {
		g.aggs[i] = ai.Spec.New()
		g.aggs[i].Reset()
	}
	return g
}

// run drains src through the fold, checking for cancellation at every batch
// boundary (batch consumers bypass Next and its per-row interrupt stride).
func (f *batchAggFold) run(ctx *Ctx, src BatchOperator) error {
	for {
		if ctx.Interrupted() {
			return ErrInterrupted
		}
		b, err := src.NextBatch(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if err := f.fold(ctx, b); err != nil {
			return err
		}
	}
}

// fold accumulates one batch.
func (f *batchAggFold) fold(ctx *Ctx, b *Batch) error {
	n := b.Len()
	if len(f.groupKeys) == 0 {
		for len(f.allSel) < n {
			f.allSel = append(f.allSel, len(f.allSel))
		}
		return f.stepGroup(ctx, f.scalar, b, f.allSel[:n])
	}
	for i := 0; i < n; i++ {
		if f.groupOrds != nil {
			for k, ord := range f.groupOrds {
				f.keybuf[k] = b.Cols[ord].Vals[i]
			}
		} else {
			f.rowbuf = b.Row(i, f.rowbuf)
			for k, key := range f.groupKeys {
				v, err := key(ctx, f.rowbuf)
				if err != nil {
					return err
				}
				f.keybuf[k] = v
			}
		}
		h := sqltypes.HashRow(f.keybuf)
		var g *aggGroup
		for _, cand := range f.table[h] {
			if sqltypes.RowsGroupEqual(cand.keys, f.keybuf) {
				g = cand
				break
			}
		}
		if g == nil {
			g = f.newGroup(append([]sqltypes.Value(nil), f.keybuf...))
			f.table[h] = append(f.table[h], g)
			f.order = append(f.order, g)
		}
		if len(g.sel) == 0 {
			f.touched = append(f.touched, g)
		}
		g.sel = append(g.sel, i)
	}
	for _, g := range f.touched {
		if err := f.stepGroup(ctx, g, b, g.sel); err != nil {
			return err
		}
		g.sel = g.sel[:0]
	}
	f.touched = f.touched[:0]
	return nil
}

// stepGroup folds the selected rows of b into one group's aggregates. sel is
// in ascending row order, so each aggregate observes its inputs in exactly
// the order the row path would feed them.
func (f *batchAggFold) stepGroup(ctx *Ctx, g *aggGroup, b *Batch, sel []int) error {
	for j := range f.aggs {
		inst := &f.aggs[j]
		agg := g.aggs[j]
		switch {
		case inst.Star:
			if bs, ok := agg.(BatchStepper); ok {
				if err := bs.StepBatch(nil, sel); err != nil {
					return err
				}
				continue
			}
			for range sel {
				if err := agg.Step(ctx, nil); err != nil {
					return err
				}
			}
		case inst.ArgOrds != nil:
			if len(inst.ArgOrds) == 1 {
				if bs, ok := agg.(BatchStepper); ok {
					if err := bs.StepBatch(&b.Cols[inst.ArgOrds[0]], sel); err != nil {
						return err
					}
					continue
				}
			}
			buf := f.bufs[j]
			for _, i := range sel {
				for k, ord := range inst.ArgOrds {
					buf[k] = b.Cols[ord].Vals[i]
				}
				if err := agg.Step(ctx, buf[:len(inst.ArgOrds)]); err != nil {
					return err
				}
			}
		default:
			for _, i := range sel {
				f.rowbuf = b.Row(i, f.rowbuf)
				if err := inst.step(ctx, agg, f.rowbuf, f.bufs[j]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
