package exec

import (
	"fmt"
	"testing"

	"aggify/internal/sqltypes"
)

// An aggregate instance must, after Reset, be indistinguishable from a new
// one: executors keep instances across groups and re-Opens and Reset them.
// Each input list drives Step on a used instance (after Reset) and on a new
// instance; the results must be equal, whatever the first pass left behind.

func stepAll(agg Aggregator, vals []sqltypes.Value) (sqltypes.Value, error) {
	agg.Reset()
	for _, v := range vals {
		if err := agg.Step(nil, []sqltypes.Value{v}); err != nil {
			return sqltypes.Null, err
		}
	}
	return agg.Result(nil)
}

func TestAggregatorResetEqualsNew(t *testing.T) {
	ints := func(vs ...int64) []sqltypes.Value {
		out := make([]sqltypes.Value, len(vs))
		for i, v := range vs {
			out[i] = sqltypes.NewInt(v)
		}
		return out
	}
	inputs := [][]sqltypes.Value{
		ints(3, 1, 2),
		nil,
		{sqltypes.NewFloat(1.5), sqltypes.Null, sqltypes.NewInt(2)},
		ints(1<<62, 1<<62), // sum overflows
		{sqltypes.Null},
		{sqltypes.NewString("x")}, // sum and avg fail mid-way
		ints(7),
	}
	specs := BuiltinAggs()
	// A FuncAggregator keeps its state in the closures, as a native
	// aggregate registered through the public API does.
	specs["func"] = &AggSpec{Name: "func", New: func() Aggregator {
		var n, last int64
		return &FuncAggregator{
			InitFn: func() { n, last = 0, 0 },
			StepFn: func(_ *Ctx, args []sqltypes.Value) error {
				if args[0].Kind() != sqltypes.KindInt {
					return fmt.Errorf("not an int")
				}
				n++
				last = args[0].Int()
				return nil
			},
			FinalFn: func(*Ctx) (sqltypes.Value, error) { return sqltypes.NewInt(n*100 + last), nil },
		}
	}}
	for name, spec := range specs {
		used := spec.New()
		for _, first := range inputs {
			for _, second := range inputs {
				_, _ = stepAll(used, first)
				got, gotErr := stepAll(used, second)
				want, wantErr := stepAll(spec.New(), second)
				if fmt.Sprint(got, gotErr) != fmt.Sprint(want, wantErr) {
					t.Errorf("%s over %v after %v: got %v (%v), a new instance %v (%v)", name, second, first, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
