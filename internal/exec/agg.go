package exec

import (
	"fmt"
	"strings"

	"aggify/internal/sqltypes"
)

// Aggregator is the custom-aggregate contract of §3.1: Init (Reset),
// Accumulate (Step), Terminate (Result), and the optional Merge.
// Built-in aggregates and Aggify-generated aggregates both implement it.
type Aggregator interface {
	// Reset re-initializes the aggregate state (the contract's Init).
	// Executors reuse instances — a scalar aggregate re-opened per outer
	// row Resets the same instance — so after Reset an instance must be
	// indistinguishable from New() followed by Reset(), whatever an earlier
	// pass (also a failed one) left behind.
	Reset()
	// Step folds one input tuple into the state (the contract's Accumulate).
	// The context gives interpreted aggregates access to query execution
	// (their bodies may contain SELECTs and nested loops).
	Step(ctx *Ctx, args []sqltypes.Value) error
	// Result computes the final value (the contract's Terminate).
	Result(ctx *Ctx) (sqltypes.Value, error)
	// Merge combines the partial state of another instance of the same
	// aggregate (the contract's optional Merge: folding two partitions of
	// the input separately and merging equals folding the whole input).
	Merge(other Aggregator) error
}

// AggSpec describes an aggregate function available to the planner.
type AggSpec struct {
	Name string
	// New creates a fresh Aggregator instance; executors call Reset before
	// its first Step and may Reset it again to reuse it.
	New func() Aggregator
	// OrderSensitive marks aggregates whose result depends on input order
	// (Aggify-generated aggregates over ORDER BY cursors). The planner must
	// feed them with a streaming aggregate below an enforced sort (paper
	// §6.1).
	OrderSensitive bool
	// Mergeable marks aggregates whose Merge method is implemented.
	Mergeable bool
}

// ----- Built-in aggregates -----

// BuiltinAggs returns the specs of the built-in aggregate functions.
func BuiltinAggs() map[string]*AggSpec {
	mk := func(name string, f func() Aggregator) *AggSpec {
		return &AggSpec{Name: name, New: f, Mergeable: true}
	}
	return map[string]*AggSpec{
		"count": mk("count", func() Aggregator { return &countAgg{} }),
		"sum":   mk("sum", func() Aggregator { return &sumAgg{} }),
		"avg":   mk("avg", func() Aggregator { return &avgAgg{} }),
		"min":   mk("min", func() Aggregator { return &minMaxAgg{want: -1} }),
		"max":   mk("max", func() Aggregator { return &minMaxAgg{want: 1} }),
	}
}

// IsBuiltinAgg reports whether name is a built-in aggregate function.
func IsBuiltinAgg(name string) bool {
	switch strings.ToLower(name) {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// countAgg implements COUNT(*) (no args) and COUNT(x) (skips NULL).
type countAgg struct {
	n int64
}

func (a *countAgg) Reset() { a.n = 0 }

func (a *countAgg) Step(_ *Ctx, args []sqltypes.Value) error {
	if len(args) == 0 || !args[0].IsNull() {
		a.n++
	}
	return nil
}

func (a *countAgg) Result(*Ctx) (sqltypes.Value, error) { return sqltypes.NewInt(a.n), nil }

func (a *countAgg) Merge(other Aggregator) error {
	o, ok := other.(*countAgg)
	if !ok {
		return fmt.Errorf("exec: merge of mismatched aggregate")
	}
	a.n += o.n
	return nil
}

// sumAgg implements SUM; integer inputs keep integer arithmetic.
type sumAgg struct {
	seen    bool
	isFloat bool
	i       int64
	f       float64
}

func (a *sumAgg) Reset() { *a = sumAgg{} }

func (a *sumAgg) Step(_ *Ctx, args []sqltypes.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: sum expects 1 argument")
	}
	return a.add(args[0])
}

func (a *sumAgg) add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case sqltypes.KindInt:
		s, err := sqltypes.AddInt64(a.i, v.Int())
		if err != nil && !a.isFloat {
			return err
		}
		a.i = s
		a.f += float64(v.Int())
	case sqltypes.KindFloat:
		a.isFloat = true
		a.f += v.Float()
	default:
		return fmt.Errorf("exec: sum of non-numeric %s", v.Kind())
	}
	a.seen = true
	return nil
}

func (a *sumAgg) Result(*Ctx) (sqltypes.Value, error) {
	if !a.seen {
		return sqltypes.Null, nil
	}
	if a.isFloat {
		return sqltypes.NewFloat(a.f), nil
	}
	return sqltypes.NewInt(a.i), nil
}

func (a *sumAgg) Merge(other Aggregator) error {
	o, ok := other.(*sumAgg)
	if !ok {
		return fmt.Errorf("exec: merge of mismatched aggregate")
	}
	a.seen = a.seen || o.seen
	a.isFloat = a.isFloat || o.isFloat
	s, err := sqltypes.AddInt64(a.i, o.i)
	if err != nil && !a.isFloat {
		return err
	}
	a.i = s
	a.f += o.f
	return nil
}

// avgAgg implements AVG (always float).
type avgAgg struct {
	n int64
	f float64
}

func (a *avgAgg) Reset() { *a = avgAgg{} }

func (a *avgAgg) Step(_ *Ctx, args []sqltypes.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: avg expects 1 argument")
	}
	return a.add(args[0])
}

func (a *avgAgg) add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("exec: avg of non-numeric %s", v.Kind())
	}
	a.n++
	a.f += f
	return nil
}

func (a *avgAgg) Result(*Ctx) (sqltypes.Value, error) {
	if a.n == 0 {
		return sqltypes.Null, nil
	}
	return sqltypes.NewFloat(a.f / float64(a.n)), nil
}

func (a *avgAgg) Merge(other Aggregator) error {
	o, ok := other.(*avgAgg)
	if !ok {
		return fmt.Errorf("exec: merge of mismatched aggregate")
	}
	a.n += o.n
	a.f += o.f
	return nil
}

// minMaxAgg implements MIN (want=-1) and MAX (want=1).
type minMaxAgg struct {
	want int
	seen bool
	best sqltypes.Value
}

func (a *minMaxAgg) Reset() { a.seen = false; a.best = sqltypes.Null }

func (a *minMaxAgg) Step(_ *Ctx, args []sqltypes.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("exec: min/max expects 1 argument")
	}
	return a.add(args[0])
}

func (a *minMaxAgg) add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil
	}
	if !a.seen {
		a.best = v
		a.seen = true
		return nil
	}
	c, ok := sqltypes.Compare(v, a.best)
	if !ok {
		return fmt.Errorf("exec: min/max over incomparable values %s and %s", v.Kind(), a.best.Kind())
	}
	if (a.want < 0 && c < 0) || (a.want > 0 && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAgg) Result(*Ctx) (sqltypes.Value, error) {
	if !a.seen {
		return sqltypes.Null, nil
	}
	return a.best, nil
}

func (a *minMaxAgg) Merge(other Aggregator) error {
	o, ok := other.(*minMaxAgg)
	if !ok || o.want != a.want {
		return fmt.Errorf("exec: merge of mismatched aggregate")
	}
	if !o.seen {
		return nil
	}
	return a.Step(nil, []sqltypes.Value{o.best})
}

// FuncAggregator adapts three closures to the Aggregator contract; used for
// native-Go custom aggregates registered through the public API.
type FuncAggregator struct {
	InitFn  func()
	StepFn  func(ctx *Ctx, args []sqltypes.Value) error
	FinalFn func(ctx *Ctx) (sqltypes.Value, error)
	MergeFn func(other Aggregator) error // optional
}

// Reset implements Aggregator.
func (a *FuncAggregator) Reset() {
	if a.InitFn != nil {
		a.InitFn()
	}
}

// Step implements Aggregator.
func (a *FuncAggregator) Step(ctx *Ctx, args []sqltypes.Value) error { return a.StepFn(ctx, args) }

// Result implements Aggregator.
func (a *FuncAggregator) Result(ctx *Ctx) (sqltypes.Value, error) { return a.FinalFn(ctx) }

// Merge implements Aggregator; aggregates without MergeFn reject it.
func (a *FuncAggregator) Merge(other Aggregator) error {
	if a.MergeFn == nil {
		return fmt.Errorf("exec: aggregate does not support Merge")
	}
	return a.MergeFn(other)
}
