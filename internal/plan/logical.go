// Logical-plan IR: a small relational algebra sitting between the AST and
// physical compilation. Compile builds it from the (already decorrelated)
// SELECT, the rewrite pass (rewrite.go) normalizes it, and lowering turns it
// back into a canonical AST the existing physical compiler consumes — so
// every physical decision (index selection, join algorithm) keeps working
// on the tree it already understands.
//
// The IR is deliberately lossless and conservative: buildLogical refuses any
// shape it cannot round-trip exactly (ok=false), in which case the rewrite
// pass is skipped and the query compiles from the original AST. Blocks have
// a fixed spine, innermost to outermost:
//
//	From → Filter* (WHERE) → [Aggregate → Filter* (HAVING)] → Project
//	     → [Apply] → [Sort] → [Top] → [With]
//
// where From is a Scan, CTERef, Derived, Join tree, or Cross of those.
// UNION ALL chains become a SetOp of per-branch spines under the head's
// Sort/Top/With wrappers. CTE bodies are carried opaquely (they see only
// outer scopes, so block-local rules cannot touch them safely).
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

// lJoin is an explicit ANSI join. mark/cost annotate a join reorder_joins
// rebuilt (mark is "" when untouched; cost is the estimated driving-leaf
// cardinality shown in EXPLAIN).
type lJoin struct {
	Kind ast.JoinKind
	L, R lNode
	On   ast.Expr
	mark string
	cost float64
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

// lAggregate groups and aggregates; the aggregate calls themselves live in
// the enclosing lProject's items (as in the AST).
type lAggregate struct {
	In      lNode
	GroupBy []ast.Expr
}

// lProject is the projection list of one query block.
type lProject struct {
	In       lNode
	Items    []ast.SelectItem
	Distinct bool
	// OrderEnforced carries the Aggify Eq. 6 flag of the source block so
	// lowering restores it verbatim.
	OrderEnforced bool
	mark          string // fired-rule annotation (inline_udf), "" when untouched
}

// lApply marks a block whose projection evaluates embedded subqueries
// (correlated or not): the physical compiler runs them per row, so rules
// must not change how many rows reach the projection... which none of the
// current rules do above a Project; the node mostly documents the shape.
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

// lSetOp is a UNION ALL chain. origs keeps each branch's source Select so
// lowering can restore fields the physical compiler ignores on non-head
// branches (their own With/OrderBy/Top) without the IR modeling them.
type lSetOp struct {
	Branches []lNode
	origs    []*ast.Select
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

// buildLogical turns a SELECT into the IR, or reports ok=false for any shape
// that would not round-trip exactly (the caller then skips the rewrite pass).
func (c *compiler) buildLogical(q *ast.Select) (lNode, bool) {
	return c.buildLogicalSelect(q, nil)
}

// buildLogicalSelect builds the wrapper stack + block spine (or SetOp of
// spines) for one SELECT. cteScope lists CTE names visible at this point so
// TableRefs classify as lCTERef vs lScan the same way the compiler's cteEnv
// will.
func (c *compiler) buildLogicalSelect(q *ast.Select, cteScope []string) (lNode, bool) {
	scope := cteScope
	if len(q.With) > 0 {
		scope = make([]string, 0, len(cteScope)+len(q.With))
		scope = append(scope, cteScope...)
		for _, cte := range q.With {
			scope = append(scope, cte.Name)
		}
	}
	var n lNode
	if q.Union == nil {
		var ok bool
		n, ok = c.buildLogicalCore(q, q.OrderBy, scope)
		if !ok {
			return nil, false
		}
	} else {
		set := &lSetOp{}
		for b := q; b != nil; b = b.Union {
			// Non-head branches compile with nil ORDER BY (compileSelect
			// applies only the head's), matching compileCore's inputs.
			var orderBy []ast.OrderItem
			if b == q {
				orderBy = nil // head's ORDER BY resolves against union output
			}
			bn, ok := c.buildLogicalCore(b, orderBy, scope)
			if !ok {
				return nil, false
			}
			set.Branches = append(set.Branches, bn)
			set.origs = append(set.origs, b)
		}
		n = set
	}
	if len(q.OrderBy) > 0 {
		n = &lSort{In: n, Keys: q.OrderBy}
	}
	if q.Top != nil {
		n = &lTop{In: n, N: q.Top}
	}
	if len(q.With) > 0 {
		n = &lWith{In: n, Defs: q.With}
	}
	return n, true
}

// buildLogicalCore builds one query block's spine: From → WHERE filters →
// aggregate + HAVING filters → Project [→ Apply]. orderBy is passed only for
// aggregate detection (ORDER BY sum(x) forces aggregation), mirroring
// compileCore.
func (c *compiler) buildLogicalCore(q *ast.Select, orderBy []ast.OrderItem, cteScope []string) (lNode, bool) {
	n, ok := c.buildLogicalFrom(q.From, cteScope)
	if !ok {
		return nil, false
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
			return nil, false // nested aggregates: let compileCore report it
		}
	}
	if err := c.findAggCalls(q.Having, &aggs, seen); err != nil {
		return nil, false
	}
	for _, o := range orderBy {
		if err := c.findAggCalls(o.Expr, &aggs, seen); err != nil {
			return nil, false
		}
	}
	if len(aggs) > 0 || len(q.GroupBy) > 0 {
		n = &lAggregate{In: n, GroupBy: q.GroupBy}
		for _, cj := range splitConjuncts(q.Having) {
			n = &lFilter{In: n, Pred: cj}
		}
	} else if q.Having != nil {
		return nil, false // HAVING without aggregation is a compile error
	}

	p := &lProject{In: n, Items: q.Items, Distinct: q.Distinct, OrderEnforced: q.OrderEnforced}
	hasSub := false
	for _, it := range q.Items {
		if !it.Star && ast.HasSubquery(it.Expr) {
			hasSub = true
			break
		}
	}
	if hasSub {
		return &lApply{In: p}, true
	}
	return p, true
}

func (c *compiler) buildLogicalFrom(items []ast.TableExpr, cteScope []string) (lNode, bool) {
	if len(items) == 1 {
		return c.buildLogicalUnit(items[0], cteScope)
	}
	cross := &lCross{Units: make([]lNode, 0, len(items))}
	for _, te := range items {
		u, ok := c.buildLogicalUnit(te, cteScope)
		if !ok {
			return nil, false
		}
		cross.Units = append(cross.Units, u)
	}
	return cross, true
}

func (c *compiler) buildLogicalUnit(te ast.TableExpr, cteScope []string) (lNode, bool) {
	switch t := te.(type) {
	case *ast.TableRef:
		for _, name := range cteScope {
			if name == t.Name {
				return &lCTERef{Name: t.Name, Alias: t.Alias}, true
			}
		}
		return &lScan{Name: t.Name, Alias: t.Alias}, true
	case *ast.SubqueryRef:
		child, ok := c.buildLogicalSelect(t.Query, cteScope)
		if !ok {
			return nil, false
		}
		return &lDerived{Child: child, Alias: t.Alias}, true
	case *ast.Join:
		l, ok := c.buildLogicalUnit(t.L, cteScope)
		if !ok {
			return nil, false
		}
		r, ok := c.buildLogicalUnit(t.R, cteScope)
		if !ok {
			return nil, false
		}
		return &lJoin{Kind: t.Kind, L: l, R: r, On: t.On}, true
	}
	return nil, false
}

// lowerLogical turns a rewritten IR back into the canonical AST the physical
// compiler consumes, recording fired-rule marks on the compiler for EXPLAIN
// annotation. ok=false means the tree drifted from the canonical spine (a
// rule bug); the caller falls back to the original AST.
func (c *compiler) lowerLogical(n lNode) (*ast.Select, bool) {
	return c.lowerSelect(n)
}

func (c *compiler) lowerSelect(n lNode) (*ast.Select, bool) {
	var with []ast.CTE
	var top ast.Expr
	var orderBy []ast.OrderItem
	if w, ok := n.(*lWith); ok {
		with = w.Defs
		n = w.In
	}
	if t, ok := n.(*lTop); ok {
		top = t.N
		n = t.In
	}
	if s, ok := n.(*lSort); ok {
		orderBy = s.Keys
		n = s.In
	}

	var head *ast.Select
	if set, ok := n.(*lSetOp); ok {
		var prev *ast.Select
		for i, b := range set.Branches {
			bs, ok := c.lowerBlock(b)
			if !ok {
				return nil, false
			}
			if i > 0 {
				// Inert on non-head branches (never compiled), preserved so
				// the round-trip is lossless.
				orig := set.origs[i]
				bs.With = orig.With
				bs.OrderBy = orig.OrderBy
				bs.Top = orig.Top
				prev.Union = bs
			} else {
				head = bs
			}
			prev = bs
		}
	} else {
		var ok bool
		head, ok = c.lowerBlock(n)
		if !ok {
			return nil, false
		}
	}
	head.With = with
	head.Top = top
	head.OrderBy = orderBy
	return head, true
}

// lowerBlock lowers one block spine to a Select (without the wrapper fields,
// which lowerSelect owns).
func (c *compiler) lowerBlock(n lNode) (*ast.Select, bool) {
	if a, ok := n.(*lApply); ok {
		n = a.In
	}
	p, ok := n.(*lProject)
	if !ok {
		return nil, false
	}
	q := &ast.Select{Items: p.Items, Distinct: p.Distinct, OrderEnforced: p.OrderEnforced}
	if p.mark != "" {
		if c.projMarks == nil {
			c.projMarks = map[*ast.Select]string{}
		}
		c.projMarks[q] = p.mark
	}
	n = p.In

	preds, n := c.lowerFilters(n)
	if agg, ok := n.(*lAggregate); ok {
		q.Having = andReversed(preds)
		q.GroupBy = agg.GroupBy
		preds, n = c.lowerFilters(agg.In)
	}
	q.Where = andReversed(preds)

	from, ok := c.lowerFrom(n)
	if !ok {
		return nil, false
	}
	q.From = from
	return q, true
}

// lowerFilters collects a run of lFilter nodes top-down (outermost conjunct
// first) and records their rewrite marks.
func (c *compiler) lowerFilters(n lNode) ([]ast.Expr, lNode) {
	var preds []ast.Expr
	for {
		f, ok := n.(*lFilter)
		if !ok {
			return preds, n
		}
		if f.mark != "" {
			c.markExpr(f.Pred, f.mark)
		}
		preds = append(preds, f.Pred)
		n = f.In
	}
}

// andReversed rebuilds a conjunction from filters collected top-down, so the
// innermost (first-built) conjunct comes first — byte-identical to the
// original WHERE for an untouched chain.
func andReversed(preds []ast.Expr) ast.Expr {
	var out ast.Expr
	for i := len(preds) - 1; i >= 0; i-- {
		out = ast.And(out, preds[i])
	}
	return out
}

func (c *compiler) lowerFrom(n lNode) ([]ast.TableExpr, bool) {
	if cross, ok := n.(*lCross); ok {
		out := make([]ast.TableExpr, 0, len(cross.Units))
		for _, u := range cross.Units {
			te, ok := c.lowerUnit(u)
			if !ok {
				return nil, false
			}
			out = append(out, te)
		}
		return out, true
	}
	te, ok := c.lowerUnit(n)
	if !ok {
		return nil, false
	}
	return []ast.TableExpr{te}, true
}

func (c *compiler) lowerUnit(n lNode) (ast.TableExpr, bool) {
	switch t := n.(type) {
	case *lScan:
		tr := &ast.TableRef{Name: t.Name, Alias: t.Alias}
		if t.hint != nil {
			if c.accessHints == nil {
				c.accessHints = map[*ast.TableRef]*accessHint{}
			}
			c.accessHints[tr] = t.hint
		}
		return tr, true
	case *lCTERef:
		return &ast.TableRef{Name: t.Name, Alias: t.Alias}, true
	case *lDerived:
		sel, ok := c.lowerSelect(t.Child)
		if !ok {
			return nil, false
		}
		if t.mark != "" {
			c.markSelect(sel, t.mark)
		}
		return &ast.SubqueryRef{Query: sel, Alias: t.Alias}, true
	case *lJoin:
		l, ok := c.lowerUnit(t.L)
		if !ok {
			return nil, false
		}
		r, ok := c.lowerUnit(t.R)
		if !ok {
			return nil, false
		}
		j := &ast.Join{Kind: t.Kind, L: l, R: r, On: t.On}
		if t.mark != "" {
			if c.joinMarks == nil {
				c.joinMarks = map[*ast.Join]string{}
			}
			c.joinMarks[j] = c.rwSuffix(t.mark) + costSuffix(t.cost)
		}
		return j, true
	}
	return nil, false
}

// mapLogicalChildren rewrites every direct child of n through f, in place
// (the IR owns a private AST clone), and returns n.
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

// itemOutName is the output column name of a projection item, mirroring
// selectOutputNames for star-free item lists.
func itemOutName(it ast.SelectItem, idx int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ast.ColRef); ok {
		return cr.Name
	}
	return fmt.Sprintf("col%d", idx+1)
}
