// Package plan compiles query ASTs into executable physical operator trees
// in two stages: a rule-based logical rewrite pass over a small relational
// IR (logical.go + rewrite.go: apply decorrelation, the rewrite that gives
// the paper's "Aggify+" configuration its set-oriented plans; UDF inlining,
// constant folding, predicate pushdown, projection pruning, redundant-sort
// elimination, each individually toggleable and reported in EXPLAIN), and
// physical compilation of that IR: predicate placement,
// index-seek selection, join-order and join-algorithm choice,
// scalar-subquery apply, and the paper's Eq. 6 streaming-aggregate
// enforcement for order-sensitive custom aggregates.
package plan

import (
	"fmt"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Catalog is the planner's view of schema objects; the engine implements it.
type Catalog interface {
	// ResolveTable returns a base table, temp table, or table variable.
	ResolveTable(name string) (*storage.Table, error)
	// AggSpec returns the aggregate function spec for name, if any
	// (built-in or custom).
	AggSpec(name string) (*exec.AggSpec, bool)
	// ScalarFunc returns the definition of the scalar UDF with this name,
	// if any (built-in scalar functions are handled by the planner itself).
	ScalarFunc(name string) (*ast.CreateFunction, bool)
}

// Options control optimizer behaviour; the zero value is the default
// configuration used by the engine.
type Options struct {
	// DisableRules turns off individual logical rewrite rules (rewrite.go);
	// RuleAll disables the whole pass. A bitmask rather than a slice so
	// Options stays usable as a plan-cache key.
	DisableRules RuleSet
	// MaxRecursion caps recursive CTE iterations (0 = engine default).
	MaxRecursion int
}

// Plan is a compiled, reusable query plan. Build instantiates a fresh
// operator tree, so a Plan may be executed many times and reentrantly.
type Plan struct {
	// Columns are the output column names.
	Columns []string
	// Explain describes the chosen physical plan.
	Explain *Node
	// Rewrites lists the logical rewrite rules that fired while normalizing
	// this query, as "rule(count)" in rule order; empty when the pass left
	// the query untouched. Surfaced as the EXPLAIN `rewrites:` header.
	Rewrites []string
	// Declined lists the UDF calls inline_udf left in place, as
	// "name=reason" (froid's reason codes); surfaced as the EXPLAIN
	// `declined:` header. Empty when the query calls no UDF.
	Declined []string

	// Stamps records the stats version of every base table this plan was
	// costed against at compile time. The engine plan cache compares them
	// to the tables' current versions and replans when the drift exceeds
	// its staleness threshold.
	Stamps []TableStamp

	build opBuilder
}

// TableStamp is one table's stats version at plan-compile time.
type TableStamp struct {
	Table        *storage.Table
	StatsVersion uint64
}

// Build instantiates the physical operator tree for one execution.
func (p *Plan) Build() exec.Operator {
	return p.build(&buildCtx{})
}

// Run builds and drains the plan.
func (p *Plan) Run(ctx *exec.Ctx) ([]exec.Row, error) {
	return exec.Drain(ctx, p.Build())
}

// BuildInstrumented instantiates the operator tree with every annotated
// operator wrapped in an exec.InstrumentedOp. The returned Instrumentation
// owns the per-execution counters: plans are cached and shared across
// sessions, so runtime stats never live on the Plan or its explain Nodes.
func (p *Plan) BuildInstrumented() (exec.Operator, *Instrumentation) {
	ins := &Instrumentation{Root: p.Explain, Stats: map[*Node]*exec.OpStats{}}
	bc := &buildCtx{instr: func(n *Node, op exec.Operator) exec.Operator {
		st, ok := ins.Stats[n]
		if !ok {
			st = &exec.OpStats{}
			ins.Stats[n] = st
		}
		return &exec.InstrumentedOp{Child: op, Stats: st}
	}}
	return p.build(bc), ins
}

// RunInstrumented builds an instrumented tree, drains it, and returns the
// rows together with the collected per-operator statistics.
func (p *Plan) RunInstrumented(ctx *exec.Ctx) ([]exec.Row, *Instrumentation, error) {
	op, ins := p.BuildInstrumented()
	rows, err := exec.Drain(ctx, op)
	return rows, ins, err
}

// Node is one node of the explain tree.
type Node struct {
	Op       string // operator name, e.g. "IndexSeek(partsupp.ps_partkey)"
	Children []*Node
}

// String renders the explain tree with indentation.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op)
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Contains reports whether any node's Op contains the substring s.
func (n *Node) Contains(s string) bool {
	if strings.Contains(n.Op, s) {
		return true
	}
	for _, c := range n.Children {
		if c.Contains(s) {
			return true
		}
	}
	return false
}

func node(op string, children ...*Node) *Node { return &Node{Op: op, Children: children} }

// Instrumentation carries the runtime statistics of one instrumented
// execution, keyed by explain node.
type Instrumentation struct {
	// Root is the plan's explain tree.
	Root *Node
	// Stats maps each annotated node to its runtime counters. Nodes absent
	// from the map were never instantiated (or carry no operator of their
	// own, like hidden projection stripping).
	Stats map[*Node]*exec.OpStats
}

// Render prints the explain tree annotated with runtime counters. Reads are
// exclusive (the node's inclusive delta minus its instrumented descendants),
// so summing the reads column over all printed nodes reproduces the
// execution's session-level storage.Stats delta; time is inclusive of the
// subtree.
func (ins *Instrumentation) Render() string {
	var b strings.Builder
	ins.render(&b, ins.Root, 0)
	return b.String()
}

func (ins *Instrumentation) render(b *strings.Builder, n *Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op)
	if st, ok := ins.Stats[n]; ok {
		if st.Loops() == 0 {
			b.WriteString(" (never executed)")
		} else {
			ex := st.Reads().Sub(ins.childInclusive(n))
			fmt.Fprintf(b, " (rows=%d loops=%d time=%s reads=%d", st.Rows(), st.Loops(), st.Time(), ex.LogicalReads)
			if ex.WorktableWrites != 0 || ex.WorktableReads != 0 {
				fmt.Fprintf(b, " worktable w=%d r=%d", ex.WorktableWrites, ex.WorktableReads)
			}
			if ex.IndexSeeks != 0 {
				fmt.Fprintf(b, " seeks=%d", ex.IndexSeeks)
			}
			if st.PeakBuffered() > 0 {
				fmt.Fprintf(b, " buffered=%d", st.PeakBuffered())
			}
			b.WriteString(")")
		}
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		ins.render(b, c, depth+1)
	}
}

// childInclusive sums the inclusive read deltas of the nearest instrumented
// descendants of n (unannotated intermediate nodes are transparent).
func (ins *Instrumentation) childInclusive(n *Node) storage.Snapshot {
	var sum storage.Snapshot
	for _, c := range n.Children {
		if st, ok := ins.Stats[c]; ok {
			sum = sum.Add(st.Reads())
		} else {
			sum = sum.Add(ins.childInclusive(c))
		}
	}
	return sum
}

// TotalExclusive sums the exclusive read deltas over every annotated node —
// by construction this equals the root's inclusive delta, i.e. the session
// stats delta of the execution (used by tests as an invariant check).
func (ins *Instrumentation) TotalExclusive() storage.Snapshot {
	var sum storage.Snapshot
	var walk func(n *Node)
	walk = func(n *Node) {
		if st, ok := ins.Stats[n]; ok {
			sum = sum.Add(st.Reads().Sub(ins.childInclusive(n)))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ins.Root)
	return sum
}

// buildCtx carries per-execution wiring state (recursive CTE delta buffers
// and the instrumentation hook).
type buildCtx struct {
	deltas map[any]*[]exec.Row
	// instr, when set, wraps each annotated operator (keyed by its explain
	// node) as it is instantiated; nil for plain executions.
	instr func(n *Node, op exec.Operator) exec.Operator
}

// annotate pairs a freshly created explain node with the builder that
// instantiates its operator, so instrumented executions can attribute
// runtime statistics to the node. Call it with the node that describes
// exactly the operator the builder constructs.
func annotate(b opBuilder, n *Node) opBuilder {
	return func(bc *buildCtx) exec.Operator {
		op := b(bc)
		if bc.instr != nil {
			op = bc.instr(n, op)
		}
		return op
	}
}

// delta returns the per-execution delta buffer for a recursive CTE binding,
// creating it on first use.
func (bc *buildCtx) delta(key any) *[]exec.Row {
	if bc.deltas == nil {
		bc.deltas = map[any]*[]exec.Row{}
	}
	d, ok := bc.deltas[key]
	if !ok {
		d = new([]exec.Row)
		bc.deltas[key] = d
	}
	return d
}

// opBuilder instantiates an operator subtree for one execution.
type opBuilder func(bc *buildCtx) exec.Operator

// errf builds planner errors.
func errf(format string, args ...any) error {
	return fmt.Errorf("plan: %s", fmt.Sprintf(format, args...))
}

func litScalar(v sqltypes.Value) exec.Scalar { return exec.ConstScalar(v) }

// CompileScalar compiles an expression that references no table columns
// (variables, parameters, literals, function calls, scalar subqueries).
func CompileScalar(cat Catalog, opts Options, e ast.Expr) (exec.Scalar, error) {
	return newCompiler(cat, opts).compileExpr(e, &scope{}, nil)
}

// CompileScalarSlots compiles an expression whose variable references are
// resolved at compile time to indexes into Ctx.VarSlots (the fast path used
// by compiled procedural blocks, i.e. Aggify-generated aggregates). Every
// variable in e must appear in slots.
func CompileScalarSlots(cat Catalog, opts Options, e ast.Expr, slots map[string]int) (exec.Scalar, error) {
	c := newCompiler(cat, opts)
	c.slots = slots
	return c.compileExpr(e, &scope{}, nil)
}

// CompileRowExpr compiles an expression against the columns of a single
// table (used for DML: UPDATE SET expressions; WHERE goes through
// CompileRowPredicate).
func CompileRowExpr(cat Catalog, opts Options, e ast.Expr, tab *storage.Table) (exec.Scalar, error) {
	return newCompiler(cat, opts).compileExpr(e, tableScope(tab), nil)
}

// tableScope is the row scope of a single table's columns.
func tableScope(tab *storage.Table) *scope {
	sc := &scope{}
	for _, col := range tab.Schema.Columns {
		sc.add(tab.Name, col.Name, col.Type)
	}
	return sc
}
