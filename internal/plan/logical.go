// Logical-plan IR: the one tree between a parsed SELECT and its physical
// operators. Compile builds it from the parsed query, the rewrite pass
// (rewrite.go, decorrelate.go) normalizes it in place, and physical
// compilation (compile_select.go, compile_from.go) reads it directly. A
// rule's decision reaches its operator as a field of the node it decided:
// lFilter.mark, lDerived.mark, lProject.mark, lScan.hint and lJoin.mark.
//
// Blocks have a fixed spine, innermost to outermost:
//
//	From → Filter* (WHERE) → [Aggregate → Filter* (HAVING)] → Project
//	     → [Apply] → [Sort] → [Top] → [With]
//
// where From is a Scan, CTERef, Derived, Join tree, or Cross of those. A
// UNION ALL chain is a SetOp of branch spines, each under its own Top (a TOP
// belongs to its query specification), with the trailing ORDER BY as a Sort
// above the SetOp. CTE bodies and expression subqueries are built the same
// way when they compile, but no rule runs on them: they see only outer
// scopes, so block-local rules cannot touch them safely.
package plan

import (
	"fmt"

	"aggify/internal/ast"
)

// lNode is one node of the logical IR.
type lNode interface{ lnode() }

// --- FROM-position nodes ---

// lScan reads a base table, table variable, or temp table. hint, when set
// by choose_access_path, pins the physical access path the compiler must
// use for this scan.
type lScan struct {
	Name  string
	Alias string
	hint  *accessHint
}

// lCTERef reads a common table expression visible in the current scope.
type lCTERef struct {
	Name  string
	Alias string
}

// lDerived is a derived table: (SELECT ...) alias.
type lDerived struct {
	Child lNode
	Alias string
	mark  string // fired-rule annotation for EXPLAIN, "" when untouched
}

// lJoin is an explicit ANSI join. mark annotates a join a rule built
// (decorrelate; "" when untouched).
type lJoin struct {
	Kind ast.JoinKind
	L, R lNode
	On   ast.Expr
	mark string
}

// lCross is a comma-joined FROM list (len 0: no FROM at all).
type lCross struct {
	Units []lNode
}

// --- spine nodes ---

// lFilter applies one conjunct. WHERE conjuncts stack directly above the
// From construct; HAVING conjuncts stack above the lAggregate.
type lFilter struct {
	In   lNode
	Pred ast.Expr
	mark string
}

// lAggregate groups and aggregates. Aggs are the block's distinct aggregate
// calls, found once when the block is built; the calls themselves stay in
// the enclosing lProject's items, HAVING filters and ORDER BY keys.
type lAggregate struct {
	In      lNode
	GroupBy []ast.Expr
	Aggs    []aggCall
}

// lProject is the projection list of one query block.
type lProject struct {
	In       lNode
	Items    []ast.SelectItem
	Distinct bool
	// OrderEnforced carries the Aggify Eq. 6 flag of the source block.
	OrderEnforced bool
	mark          string // fired-rule annotation (inline_udf), "" when untouched
}

// lApply marks a block whose projection evaluates embedded subqueries
// (correlated or not): the physical compiler runs them per row, so rules
// must not change how many rows reach the projection. decorrelate drops it
// once it has replaced every subquery of the projection with a join.
type lApply struct {
	In lNode
}

// lSort is an ORDER BY.
type lSort struct {
	In   lNode
	Keys []ast.OrderItem
}

// lTop is a TOP n row limit.
type lTop struct {
	In lNode
	N  ast.Expr
}

// lWith scopes CTE definitions (bodies carried opaquely).
type lWith struct {
	In   lNode
	Defs []ast.CTE
}

// lSetOp is a UNION ALL chain of branch spines.
type lSetOp struct {
	Branches []lNode
}

func (*lScan) lnode()      {}
func (*lCTERef) lnode()    {}
func (*lDerived) lnode()   {}
func (*lJoin) lnode()      {}
func (*lCross) lnode()     {}
func (*lFilter) lnode()    {}
func (*lAggregate) lnode() {}
func (*lProject) lnode()   {}
func (*lApply) lnode()     {}
func (*lSort) lnode()      {}
func (*lTop) lnode()       {}
func (*lWith) lnode()      {}
func (*lSetOp) lnode()     {}

// buildLogical turns a SELECT into the IR: the wrapper stack and the block
// spine, or a SetOp of spines. ctes lists the CTE names visible where q
// appears, so table references classify as lCTERef or lScan the way the
// compiler's cteEnv resolves them. Its errors are the query's compile
// errors.
func (c *compiler) buildLogical(q *ast.Select, ctes []string) (lNode, error) {
	if len(q.With) > 0 {
		ctes = append([]string(nil), ctes...)
		for _, cte := range q.With {
			ctes = append(ctes, cte.Name)
		}
	}
	var n lNode
	if q.Union == nil {
		var err error
		if n, err = c.buildBlock(q, q.OrderBy, ctes); err != nil {
			return nil, err
		}
		if len(q.OrderBy) > 0 {
			n = &lSort{In: n, Keys: q.OrderBy}
		}
		if q.Top != nil {
			n = &lTop{In: n, N: q.Top}
		}
	} else {
		set := &lSetOp{}
		for b := q; b != nil; b = b.Union {
			// The trailing ORDER BY resolves against the union's output, so
			// it takes no part in a branch's aggregate detection.
			bn, err := c.buildBlock(b, nil, ctes)
			if err != nil {
				return nil, err
			}
			if b.Top != nil {
				bn = &lTop{In: bn, N: b.Top}
			}
			set.Branches = append(set.Branches, bn)
		}
		n = set
		if len(q.OrderBy) > 0 {
			n = &lSort{In: n, Keys: q.OrderBy}
		}
	}
	if len(q.With) > 0 {
		n = &lWith{In: n, Defs: q.With}
	}
	return n, nil
}

// buildBlock builds one query block's spine: From → WHERE filters →
// aggregate + HAVING filters → Project [→ Apply]. orderBy takes part in
// aggregate detection only: ORDER BY sum(x) makes the block aggregate.
func (c *compiler) buildBlock(q *ast.Select, orderBy []ast.OrderItem, ctes []string) (lNode, error) {
	n, err := c.buildFrom(q.From, ctes)
	if err != nil {
		return nil, err
	}
	for _, cj := range splitConjuncts(q.Where) {
		n = &lFilter{In: n, Pred: cj}
	}

	var aggs []aggCall
	seen := map[string]bool{}
	for _, it := range q.Items {
		if it.Star {
			continue
		}
		if err := c.findAggCalls(it.Expr, &aggs, seen); err != nil {
			return nil, err
		}
	}
	if err := c.findAggCalls(q.Having, &aggs, seen); err != nil {
		return nil, err
	}
	for _, o := range orderBy {
		if err := c.findAggCalls(o.Expr, &aggs, seen); err != nil {
			return nil, err
		}
	}
	if len(aggs) > 0 || len(q.GroupBy) > 0 {
		n = &lAggregate{In: n, GroupBy: q.GroupBy, Aggs: aggs}
		for _, cj := range splitConjuncts(q.Having) {
			n = &lFilter{In: n, Pred: cj}
		}
	} else if q.Having != nil {
		return nil, errf("HAVING requires aggregation")
	}

	p := &lProject{In: n, Items: q.Items, Distinct: q.Distinct, OrderEnforced: q.OrderEnforced}
	for _, it := range q.Items {
		if !it.Star && ast.HasSubquery(it.Expr) {
			return &lApply{In: p}, nil
		}
	}
	return p, nil
}

func (c *compiler) buildFrom(items []ast.TableExpr, ctes []string) (lNode, error) {
	if len(items) == 1 {
		return c.buildUnit(items[0], ctes)
	}
	cross := &lCross{Units: make([]lNode, 0, len(items))}
	for _, te := range items {
		u, err := c.buildUnit(te, ctes)
		if err != nil {
			return nil, err
		}
		cross.Units = append(cross.Units, u)
	}
	return cross, nil
}

func (c *compiler) buildUnit(te ast.TableExpr, ctes []string) (lNode, error) {
	switch t := te.(type) {
	case *ast.TableRef:
		if containsStr(ctes, t.Name) {
			return &lCTERef{Name: t.Name, Alias: t.Alias}, nil
		}
		return &lScan{Name: t.Name, Alias: t.Alias}, nil
	case *ast.SubqueryRef:
		child, err := c.buildLogical(t.Query, ctes)
		if err != nil {
			return nil, err
		}
		return &lDerived{Child: child, Alias: t.Alias}, nil
	case *ast.Join:
		l, err := c.buildUnit(t.L, ctes)
		if err != nil {
			return nil, err
		}
		r, err := c.buildUnit(t.R, ctes)
		if err != nil {
			return nil, err
		}
		return &lJoin{Kind: t.Kind, L: l, R: r, On: t.On}, nil
	}
	return nil, errf("unknown table expression %T", te)
}

// mapLogicalChildren rewrites every direct child of n through f, in place
// (rules run only on an IR built from a private clone of the query), and
// returns n.
func mapLogicalChildren(n lNode, f func(lNode) lNode) lNode {
	switch t := n.(type) {
	case *lFilter:
		t.In = f(t.In)
	case *lAggregate:
		t.In = f(t.In)
	case *lProject:
		t.In = f(t.In)
	case *lApply:
		t.In = f(t.In)
	case *lSort:
		t.In = f(t.In)
	case *lTop:
		t.In = f(t.In)
	case *lWith:
		t.In = f(t.In)
	case *lDerived:
		t.Child = f(t.Child)
	case *lJoin:
		t.L = f(t.L)
		t.R = f(t.R)
	case *lCross:
		for i := range t.Units {
			t.Units[i] = f(t.Units[i])
		}
	case *lSetOp:
		for i := range t.Branches {
			t.Branches[i] = f(t.Branches[i])
		}
	}
	return n
}

// blockProject descends a derived table's child through its wrapper stack to
// the block projection; nil for SetOps and malformed spines. Callers use it
// to read a derived table's output items.
func blockProject(child lNode) *lProject {
	for {
		switch t := child.(type) {
		case *lWith:
			child = t.In
		case *lTop:
			child = t.In
		case *lSort:
			child = t.In
		case *lApply:
			child = t.In
		case *lProject:
			return t
		default:
			return nil
		}
	}
}

// blockParts splits a block below its projection into the filters above
// the aggregation (HAVING) and below it (WHERE), each outermost first, the
// aggregation (nil when the block has none), and the FROM node.
func blockParts(p *lProject) (where, having []*lFilter, agg *lAggregate, from lNode) {
	where, from = filterRun(p.In)
	if a, ok := from.(*lAggregate); ok {
		having = where
		where, from = filterRun(a.In)
		return where, having, a, from
	}
	return where, nil, nil, from
}

// filterRun collects the filters stacked from n down, outermost first, and
// the node below them.
func filterRun(n lNode) ([]*lFilter, lNode) {
	var fs []*lFilter
	for f, ok := n.(*lFilter); ok; f, ok = n.(*lFilter) {
		fs = append(fs, f)
		n = f.In
	}
	return fs, n
}

// fromUnits lists the comma-joined units of a block's FROM node.
func fromUnits(from lNode) []lNode {
	if cross, ok := from.(*lCross); ok {
		return cross.Units
	}
	return []lNode{from}
}

// bindingName is the qualifier a FROM unit's columns are visible under: the
// alias, else the table or CTE name ("" for a join).
func bindingName(n lNode) string {
	switch t := n.(type) {
	case *lScan:
		if t.Alias != "" {
			return t.Alias
		}
		return t.Name
	case *lCTERef:
		if t.Alias != "" {
			return t.Alias
		}
		return t.Name
	case *lDerived:
		return t.Alias
	}
	return ""
}

// itemOutName is the output column name of a projection item at output
// position pos (stars expanded): its alias, else the name of the column it
// projects, else col<pos+1>.
func itemOutName(it ast.SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ast.ColRef); ok {
		return cr.Name
	}
	return fmt.Sprintf("col%d", pos+1)
}
