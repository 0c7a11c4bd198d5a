// Package exec implements the engine's physical execution layer: pull-based
// (Volcano-style) operators, compiled scalar expressions, and the aggregate
// machinery — including the custom-aggregate contract (Init / Accumulate /
// Terminate / Merge) that Aggify's generated aggregates plug into.
package exec

import (
	"errors"
	"fmt"
	"slices"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/txn"
)

// Row is a tuple of values.
type Row = []sqltypes.Value

// Ctx carries the runtime context of one query execution: procedural
// variable bindings, positional parameters, the outer-row stack for
// correlated subqueries, I/O statistics, the scalar-function invoker, and
// the idle operator trees of the subqueries evaluated under it. A Ctx is
// used by one goroutine at a time: per statement on the server, per
// invocation in a procedure or aggregate body.
type Ctx struct {
	// Vars resolves procedural variables (@x) read by the query. May be nil
	// when the query references none.
	Vars func(name string) (sqltypes.Value, bool)
	// Params holds positional '?' parameter values.
	Params []sqltypes.Value
	// OuterRows is the stack of rows from enclosing queries, innermost last.
	OuterRows []Row
	// Stats receives logical I/O accounting; may be nil.
	Stats *storage.Stats
	// Snap is the snapshot all base-table reads go through: the statement
	// or transaction's pinned commit epoch. Nil reads the latest committed
	// state.
	Snap *txn.Snapshot
	// CallFunc invokes a scalar function (built-in or UDF) by name.
	CallFunc func(name string, args []sqltypes.Value) (sqltypes.Value, error)
	// Temp resolves table variables and temp tables (@t, #t) at execution
	// time; plans over such tables are late-bound since each procedure
	// invocation gets fresh instances.
	Temp func(name string) (*storage.Table, bool)
	// Interrupt, when non-nil, is checked periodically; a closed channel
	// aborts execution with ErrInterrupted (used to cap the paper's
	// "forcibly terminated" original-program runs).
	Interrupt <-chan struct{}
	// Owner carries the engine session that built this context; interpreted
	// custom aggregates use it to run the queries inside their Accumulate
	// bodies. Typed as any to keep exec independent of the engine package.
	Owner any
	// VarSlots backs slot-compiled procedural blocks (compiled custom
	// aggregates): expressions compiled with a slot table read variables by
	// index here instead of through the Vars lookup.
	VarSlots []sqltypes.Value

	// idle holds the operator trees of subqueries evaluated under this
	// context and now closed, for the next evaluation to re-open (see
	// TakeTree and PutTree).
	idle []idleTree
}

// TreeKey identifies one compiled subquery. The planner makes one per
// subquery at compile time; only its address matters (the field keeps
// each key's address distinct). Plans are shared between sessions, so the
// trees themselves live on each Ctx, not on the plan.
type TreeKey struct{ _ byte }

// idleTree is one closed subquery tree waiting to be re-opened.
type idleTree struct {
	key *TreeKey
	op  Operator
}

// maxIdleTrees bounds a context's idle trees. A routine's context lives
// for the whole invocation, and each re-plan of one of its statements
// (statistics drift, plan-cache eviction) brings new subquery keys, so a
// long loop must not grow it without end. Past the bound the oldest idle
// tree is dropped.
const maxIdleTrees = 32

// TakeTree removes and returns an idle tree cached under key, or nil when
// there is none. A tree is handed to one evaluation at a time: a nested
// evaluation of the same subquery finds none idle and builds its own.
func (c *Ctx) TakeTree(key *TreeKey) Operator {
	for i, t := range c.idle {
		if t.key == key {
			c.idle = slices.Delete(c.idle, i, i+1)
			return t.op
		}
	}
	return nil
}

// PutTree caches a closed tree under key for re-opening. Only a tree whose
// every Open and Next succeeded may be put back.
func (c *Ctx) PutTree(key *TreeKey, op Operator) {
	if len(c.idle) == maxIdleTrees {
		c.idle = slices.Delete(c.idle, 0, 1)
	}
	c.idle = append(c.idle, idleTree{key, op})
}

// ErrInterrupted is returned when Ctx.Interrupt fires mid-execution.
var ErrInterrupted = errors.New("exec: interrupted")

// Interrupted reports whether the session-level Interrupt has fired.
func (c *Ctx) Interrupted() bool {
	if c.Interrupt != nil {
		select {
		case <-c.Interrupt:
			return true
		default:
		}
	}
	return false
}

// Scalar is a compiled expression: evaluated against the current row under
// a context. Scalars are stateless and safe to share between plan instances.
type Scalar func(ctx *Ctx, row Row) (sqltypes.Value, error)

// ConstScalar returns a Scalar yielding a fixed value.
func ConstScalar(v sqltypes.Value) Scalar {
	return func(*Ctx, Row) (sqltypes.Value, error) { return v, nil }
}

// ColScalar returns a Scalar reading ordinal i of the current row.
func ColScalar(i int) Scalar {
	return func(_ *Ctx, row Row) (sqltypes.Value, error) {
		if i >= len(row) {
			return sqltypes.Null, fmt.Errorf("exec: column ordinal %d out of range %d", i, len(row))
		}
		return row[i], nil
	}
}

// OuterColScalar returns a Scalar reading ordinal i of the outer row
// levelsUp scopes above the current query.
func OuterColScalar(levelsUp, i int) Scalar {
	return func(ctx *Ctx, _ Row) (sqltypes.Value, error) {
		n := len(ctx.OuterRows)
		if levelsUp > n {
			return sqltypes.Null, fmt.Errorf("exec: outer reference %d levels up but only %d outer rows", levelsUp, n)
		}
		outer := ctx.OuterRows[n-levelsUp]
		if i >= len(outer) {
			return sqltypes.Null, fmt.Errorf("exec: outer column ordinal %d out of range %d", i, len(outer))
		}
		return outer[i], nil
	}
}

// Operator is a pull-based physical operator. Plans are factories: each
// execution instantiates its own tree, so operators may keep per-execution
// state freely. A tree may be opened again after Close — a nested-loop
// join re-opens its inner side per outer row, and a subquery re-opens its
// cached tree per evaluation — so Open must reset every piece of
// per-execution state, including what an earlier pass left behind when it
// stopped early.
type Operator interface {
	// Open prepares the operator for iteration, from the start.
	Open(ctx *Ctx) error
	// Next returns the next row, or nil at end of stream.
	Next(ctx *Ctx) (Row, error)
	// Close releases resources. It must be safe to call after a failed Open.
	Close()
}

// Drain runs op to completion and returns all rows.
func Drain(ctx *Ctx, op Operator) ([]Row, error) {
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	var out []Row
	for {
		r, err := op.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}
