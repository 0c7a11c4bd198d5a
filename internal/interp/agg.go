package interp

import (
	"fmt"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
)

// newAggSpec builds an executable aggregate spec from a CREATE AGGREGATE
// definition. Bodies within the compilable subset are compiled to slot-
// based closure chains (the analogue of the paper emitting compiled C#
// aggregates, §9); others run through the tree-walking interpreter, whose
// per-row cost is comparable to the cursor loop's.
func newAggSpec(eng *engine.Engine, def *ast.CreateAggregate, orderSensitive bool) (*exec.AggSpec, error) {
	// Field and parameter names must not collide: the aggregate frame holds
	// both (the Aggify generator renames parameters to avoid this).
	seen := map[string]bool{}
	for _, f := range def.Fields {
		if seen[f.Name] {
			return nil, fmt.Errorf("interp: aggregate %s: duplicate field %s", def.Name, f.Name)
		}
		seen[f.Name] = true
	}
	for _, p := range def.Params {
		if seen[p.Name] {
			return nil, fmt.Errorf("interp: aggregate %s: parameter %s collides with a field", def.Name, p.Name)
		}
		seen[p.Name] = true
	}
	if prog, err := compileAggregate(eng, def); err == nil {
		return &exec.AggSpec{
			Name:           def.Name,
			OrderSensitive: orderSensitive,
			Mergeable:      prog.merge != nil,
			New:            func() exec.Aggregator { return &compiledAgg{prog: prog, needInit: true} },
		}, nil
	}
	return InterpretedAggSpec(def, orderSensitive), nil
}

// InterpretedAggSpec builds an aggregate spec that always runs through the
// tree-walking interpreter, bypassing the block compiler. Exposed for the
// compiled-vs-interpreted ablation benchmark.
func InterpretedAggSpec(def *ast.CreateAggregate, orderSensitive bool) *exec.AggSpec {
	return &exec.AggSpec{
		Name:           def.Name,
		OrderSensitive: orderSensitive,
		Mergeable:      def.Merge != nil,
		New:            func() exec.Aggregator { return &interpAgg{def: def, needInit: true} },
	}
}

// interpAgg is an interpreted custom aggregate instance.
type interpAgg struct {
	def      *ast.CreateAggregate
	r        *Runner
	needInit bool
}

// Reset implements exec.Aggregator (the contract's Init is deferred to the
// first Step/Result since running the body requires an execution context).
// A used instance keeps its runner, and with it the runner's cached
// subquery trees, but gets an empty frame: afterwards it runs exactly as a
// new instance would.
func (a *interpAgg) Reset() {
	a.needInit = true
	if a.r != nil {
		a.r.cleanup()
		a.r.Frame.reset()
		a.r.Results = nil
		_ = a.declareState()
	}
}

// declareState declares the fields and parameters, all NULL.
func (a *interpAgg) declareState() error {
	for _, f := range a.def.Fields {
		if err := a.r.Frame.declare(f.Name, f.Type, sqltypes.Null); err != nil {
			return err
		}
	}
	for _, p := range a.def.Params {
		if err := a.r.Frame.declare(p.Name, p.Type, sqltypes.Null); err != nil {
			return err
		}
	}
	return nil
}

func (a *interpAgg) ensure(ctx *exec.Ctx) error {
	if a.r == nil {
		sess, ok := ctx.Owner.(*engine.Session)
		if !ok {
			return fmt.Errorf("interp: aggregate %s executed without a session context", a.def.Name)
		}
		a.r = NewRunner(sess)
		if err := a.declareState(); err != nil {
			return err
		}
	}
	if a.needInit {
		a.needInit = false
		if err := a.runBody(a.r, a.def.Init); err != nil {
			return err
		}
	}
	return nil
}

// runBody executes a method block; RETURN inside Accumulate/Init acts as an
// early exit.
func (a *interpAgg) runBody(r *Runner, b *ast.Block) error {
	err := r.Run(b.Stmts)
	if _, isReturn := err.(returnSignal); isReturn {
		return nil
	}
	return err
}

// Step implements exec.Aggregator: it binds the parameters and interprets
// the Accumulate body.
func (a *interpAgg) Step(ctx *exec.Ctx, args []sqltypes.Value) error {
	if err := a.ensure(ctx); err != nil {
		return err
	}
	if len(args) != len(a.def.Params) {
		return fmt.Errorf("interp: aggregate %s expects %d arguments, got %d", a.def.Name, len(a.def.Params), len(args))
	}
	for i, p := range a.def.Params {
		if err := a.r.Frame.assign(p.Name, args[i]); err != nil {
			return err
		}
	}
	return a.runBody(a.r, a.def.Accum)
}

// Result implements exec.Aggregator: it interprets the Terminate body and
// returns its RETURN value coerced to the declared return type. Over empty
// input this is Init followed by Terminate — the semantics the Aggify
// rewrite relies on for empty cursors.
func (a *interpAgg) Result(ctx *exec.Ctx) (sqltypes.Value, error) {
	if err := a.ensure(ctx); err != nil {
		return sqltypes.Null, err
	}
	err := a.r.Run(a.def.Terminate.Stmts)
	if err == nil {
		return sqltypes.Null, nil
	}
	ret, ok := err.(returnSignal)
	if !ok {
		return sqltypes.Null, err
	}
	v, cerr := ret.val.CoerceTo(a.def.Returns)
	if cerr != nil {
		return sqltypes.Null, fmt.Errorf("interp: terminate of %s: %w", a.def.Name, cerr)
	}
	return v, nil
}

// Merge implements exec.Aggregator: it binds the other instance's fields as
// @other_<field> variables in this instance's frame and interprets the MERGE
// body. An uninitialized other is a no-op; an uninitialized self adopts the
// other's runner wholesale (this partition saw no rows).
func (a *interpAgg) Merge(other exec.Aggregator) error {
	if a.def.Merge == nil {
		return fmt.Errorf("interp: aggregate %s does not support Merge", a.def.Name)
	}
	o, ok := other.(*interpAgg)
	if !ok || o.def != a.def {
		return fmt.Errorf("interp: merge of mismatched aggregate %s", a.def.Name)
	}
	if o.r == nil || o.needInit {
		return nil
	}
	if a.r == nil || a.needInit {
		a.r, a.needInit = o.r, false
		return nil
	}
	for _, f := range a.def.Fields {
		v, _ := o.r.Frame.lookup(f.Name)
		if err := a.r.Frame.declare(ast.OtherFieldVar(f.Name), f.Type, v); err != nil {
			return err
		}
	}
	return a.runBody(a.r, a.def.Merge)
}
