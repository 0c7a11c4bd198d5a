// Rule-based rewrite pass over the logical IR (logical.go). Compile runs it
// between building the IR and physical compilation: the query is cloned,
// built into the IR, and normalized in place by decorrelation and UDF
// inlining (once each), a fixpoint loop of local rules and one cost-based
// pass; the physical compiler then reads the normalized IR.
// Every rule is individually toggleable through Options.DisableRules (for
// bisection; with RuleAll the IR is built and compiled with no rule run),
// every firing is counted into Plan.Rewrites for the EXPLAIN `rewrites:`
// header, and nodes a rule touched carry a ` [rw:<rule>]` suffix in the plan
// tree.
//
// The rules are deliberately conservative: a transformation applies only
// when the rewritten query is byte-identical in results (row values AND row
// order, with no rule exempt) to the original, including SQL NULL semantics
// and error behavior — constant folding never folds an expression whose
// evaluation errors (overflow, division by zero), and predicates only move
// when the moved copy is total (cannot raise a new runtime error).
package plan

import (
	"fmt"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/froid"
	"aggify/internal/sqltypes"
)

// RuleSet is a bitmask of rewrite rules. It is a plain integer so Options
// stays comparable (the engine's plan cache uses Options as part of its map
// key).
type RuleSet uint32

const (
	// RuleFoldConst folds constant subexpressions with SQL three-valued
	// NULL semantics, mirroring the runtime evaluator exactly (expressions
	// whose evaluation would error are left alone), and removes WHERE/HAVING
	// conjuncts that fold to constant TRUE.
	RuleFoldConst RuleSet = 1 << iota
	// RulePushFilter pushes single-source predicates into plain derived
	// tables (through the projection, by substituting item expressions) and
	// below inner joins — including the `(Q) aggify_q` derived table the
	// Aggify rewrite emits, so pushed predicates reach the base scan and
	// become index seeks.
	RulePushFilter
	// RulePushFilterDecor pushes predicates through the shapes decorrelation
	// emits: group-key predicates into grouped derived tables, and preserved-
	// side predicates below LEFT JOINs. Disabled automatically when
	// RuleDecorrelate is, so the decorrelation ablation measures what it
	// claims.
	RulePushFilterDecor
	// RuleChooseAccessPath costs the access paths available to each base
	// scan — full scan, index equality seek, index range seek (comparisons
	// or BETWEEN) — from table statistics and equi-depth histograms, and
	// pins the cheapest on the plan. Decisions surface in EXPLAIN as
	// [rw:choose_access_path] with a cost= annotation.
	RuleChooseAccessPath
	// RuleInlineUDF replaces each call to a loop-free scalar UDF in a select
	// list or a WHERE/HAVING conjunct with the expression package froid
	// composes from the stored body (Froid; the paper's Aggify+ when the
	// body is an Aggify rewrite). It runs after RuleDecorrelate, so the
	// subqueries it introduces execute as correlated applies — the plan the
	// UDF body ran, without the interpreter around it. Calls it leaves in
	// place are listed with a reason code in Plan.Declined.
	RuleInlineUDF
	// RuleDecorrelate rewrites each correlated scalar-aggregate subquery in
	// the root block's projection into a left join against a grouped
	// derived table (decorrelate.go): the set-oriented plan of the paper's
	// Aggify+. It runs once, before every other rule.
	RuleDecorrelate

	ruleSentinel
)

// RuleAll selects every rewrite rule.
const RuleAll RuleSet = ruleSentinel - 1

// Has reports whether any rule in x is present in r.
func (r RuleSet) Has(x RuleSet) bool { return r&x != 0 }

// ruleOrder fixes the reporting order (the order rules run in a pass).
var ruleOrder = []RuleSet{RuleDecorrelate, RuleInlineUDF, RuleFoldConst, RulePushFilter, RulePushFilterDecor, RuleChooseAccessPath}

func ruleName(r RuleSet) string {
	switch r {
	case RuleDecorrelate:
		return "decorrelate"
	case RuleInlineUDF:
		return "inline_udf"
	case RuleFoldConst:
		return "fold_const"
	case RulePushFilter:
		return "push_filter"
	case RulePushFilterDecor:
		return "push_filter_decor"
	case RuleChooseAccessPath:
		return "choose_access_path"
	}
	return fmt.Sprintf("rule(%#x)", uint32(r))
}

// maxRewritePasses caps the fixpoint loop; every rule strictly shrinks the
// tree or moves a predicate downward, so real queries converge in 2-3
// passes.
const maxRewritePasses = 10

type rewriter struct {
	c     *compiler
	rules RuleSet
	fired map[RuleSet]int
	total int
	// declined lists, once each in first-seen order, the UDF calls
	// inline_udf left in place as "name=reason".
	declined []string
}

func (rw *rewriter) fire(r RuleSet)         { rw.fired[r]++; rw.total++ }
func (rw *rewriter) fireN(r RuleSet, n int) { rw.fired[r] += n; rw.total += n }

func (rw *rewriter) firedList() []string {
	var out []string
	for _, r := range ruleOrder {
		if n := rw.fired[r]; n > 0 {
			out = append(out, fmt.Sprintf("%s(%d)", ruleName(r), n))
		}
	}
	return out
}

func (rw *rewriter) run(n lNode) lNode {
	// Decorrelation runs once, first, on the subqueries the query was
	// written with. Inlining runs once, next: it only expands calls, and the
	// local rules below then see (and fold) the composed expressions.
	if rw.rules.Has(RuleDecorrelate) {
		n = rw.decorrelatePass(n)
	}
	if rw.rules.Has(RuleInlineUDF) {
		n = rw.inlinePass(n)
	}
	for pass := 0; pass < maxRewritePasses; pass++ {
		before := rw.total
		if rw.rules.Has(RuleFoldConst) {
			n = rw.foldPass(n)
		}
		if rw.rules.Has(RulePushFilter | RulePushFilterDecor) {
			n = rw.pushPass(n)
		}
		if rw.total == before {
			break
		}
	}
	// The cost-based pass runs once, after the local rules converge: the
	// fixpoint above fixes predicate placement (and mutates conjunct
	// pointers via folding), and the pass only decides among
	// already-equivalent physical shapes — it never enables another rule.
	if rw.rules.Has(RuleChooseAccessPath) {
		n = rw.choosePass(n)
	}
	return n
}

// --- inline_udf ---

// inlinePass inlines UDF calls in every query block of the IR. Calls inside
// expression subqueries, CTE bodies, GROUP BY, ORDER BY and JOIN ON are not
// visited.
func (rw *rewriter) inlinePass(n lNode) lNode {
	n = mapLogicalChildren(n, rw.inlinePass)
	if p, ok := n.(*lProject); ok {
		rw.inlineBlock(p)
	}
	return n
}

// inlineBlock inlines the UDF calls of one block: its projection and its
// WHERE and HAVING conjuncts. Only the projection of a block without
// aggregation has CommonSubquery, which evaluates a duplicated subquery once
// per row; elsewhere a body that repeats a subquery declines as
// repeated_subquery. Past an aggregation the arguments name group keys, not
// FROM columns, so a column argument there declines as name_capture.
func (rw *rewriter) inlineBlock(p *lProject) {
	where, having, agg, from := blockParts(p)
	grouped := agg != nil
	if !rw.blockCallsUDF(p, where, having) {
		return
	}
	var units []unitRef
	rw.collectUnits(from, func(lNode) {}, false, false, false, &units)
	pre := rw.site(units)
	post := froid.Site{Qualify: func(*ast.ColRef) (*ast.ColRef, bool) { return nil, false }}

	mark := ruleName(RuleInlineUDF)
	itemSite := pre
	if grouped {
		itemSite = post
	}
	pos, posKnown := 0, true // output position, stars expanded
	for i := range p.Items {
		it := &p.Items[i]
		if it.Star {
			w, ok := starWidth(units, it.Alias)
			pos, posKnown = pos+w, posKnown && ok
			continue
		}
		pos++
		var k int
		if it.Expr, k = rw.inlineExpr(it.Expr, itemSite, !grouped); k > 0 {
			p.mark = addMark(p.mark, mark)
			// The call named its column colN; an inlined body that is (or
			// folds to) a bare column would be named after the column.
			if it.Alias == "" && posKnown {
				it.Alias = fmt.Sprintf("col%d", pos)
			}
		}
	}
	for _, fs := range []struct {
		filters []*lFilter
		site    froid.Site
	}{{where, pre}, {having, post}} {
		for _, f := range fs.filters {
			var k int
			if f.Pred, k = rw.inlineExpr(f.Pred, fs.site, false); k > 0 {
				f.mark = addMark(f.mark, mark)
			}
		}
	}
}

// starWidth is how many columns a `*` (alias "") or `alias.*` item expands
// to over a block's FROM units, when their columns are known.
func starWidth(units []unitRef, alias string) (int, bool) {
	w := 0
	for _, u := range units {
		if alias != "" && u.binding != alias {
			continue
		}
		if !u.known {
			return 0, false
		}
		w += len(u.cols)
	}
	return w, true
}

// inlineExpr inlines the UDF calls of e at site and returns the new
// expression and how many calls it replaced (e itself when none). hoisted
// says duplicated subqueries in e are evaluated once per row.
func (rw *rewriter) inlineExpr(e ast.Expr, site froid.Site, hoisted bool) (ast.Expr, int) {
	if !rw.callsUDF(e) {
		return e, 0
	}
	check := func(body, bound ast.Expr) string {
		// The body must be closed: a column its own FROM units do not bind
		// would otherwise resolve against the caller's row.
		if _, err := rw.c.compileExpr(body, &scope{}, nil); err != nil {
			return froid.FreeVariable
		}
		if !hoisted && repeatsSubquery(bound) {
			return froid.RepeatedSubquery
		}
		return ""
	}
	n := 0
	out := froid.InlineCalls(e, rw.c.cat.ScalarFunc, site, check, func(string) { n++ }, rw.decline)
	if n == 0 {
		return e, 0
	}
	rw.fireN(RuleInlineUDF, n)
	return out, n
}

// blockCallsUDF reports whether any projection item or filter of a block
// calls a UDF: the cheap test that lets blocks without calls skip the rule.
func (rw *rewriter) blockCallsUDF(p *lProject, filters ...[]*lFilter) bool {
	for _, it := range p.Items {
		if !it.Star && rw.callsUDF(it.Expr) {
			return true
		}
	}
	for _, fs := range filters {
		for _, f := range fs {
			if rw.callsUDF(f.Pred) {
				return true
			}
		}
	}
	return false
}

// callsUDF reports whether e calls a UDF outside its subqueries.
func (rw *rewriter) callsUDF(e ast.Expr) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch t := x.(type) {
		case *ast.Subquery:
			return false
		case *ast.FuncCall:
			_, found = rw.c.cat.ScalarFunc(t.Name)
		}
		return !found
	})
	return found
}

func (rw *rewriter) decline(name, code string) {
	if d := name + "=" + code; !containsStr(rw.declined, d) {
		rw.declined = append(rw.declined, d)
	}
}

// site pins the argument columns of one block's calls to its FROM units:
// a qualified column to the unit of that binding, an unqualified one to the
// only unit that has it.
func (rw *rewriter) site(units []unitRef) froid.Site {
	find := func(cr *ast.ColRef) (unitRef, bool) {
		if cr.Table != "" {
			for _, u := range units {
				if u.binding == cr.Table {
					return u, true
				}
			}
			return unitRef{}, false
		}
		if len(units) == 1 {
			return units[0], units[0].binding != ""
		}
		found := -1
		for i, u := range units {
			if !u.known {
				return unitRef{}, false
			}
			if containsStr(u.cols, cr.Name) {
				if found >= 0 {
					return unitRef{}, false
				}
				found = i
			}
		}
		if found < 0 {
			return unitRef{}, false
		}
		return units[found], true
	}
	return froid.Site{
		Qualify: func(cr *ast.ColRef) (*ast.ColRef, bool) {
			u, ok := find(cr)
			if !ok {
				return nil, false
			}
			return ast.QCol(u.binding, cr.Name), true
		},
		ColType: func(cr *ast.ColRef) (sqltypes.Type, bool) {
			u, ok := find(cr)
			s, isScan := u.node.(*lScan)
			if !ok || !isScan || lateBound(s.Name) {
				return sqltypes.Unknown, false
			}
			tab, err := rw.c.cat.ResolveTable(s.Name)
			if err != nil {
				return sqltypes.Unknown, false
			}
			ord := tab.Schema.Ordinal(cr.Name)
			if ord < 0 {
				return sqltypes.Unknown, false
			}
			return tab.Schema.Columns[ord].Type, true
		},
	}
}

// repeatsSubquery reports whether e evaluates one scalar subquery (by text
// and parameter positions) more than once.
func repeatsSubquery(e ast.Expr) bool {
	seen := map[string]bool{}
	dup := false
	topSubqueries(e, func(sq *ast.Subquery) {
		k := subqueryKey(sq)
		dup = dup || seen[k]
		seen[k] = true
	})
	return dup
}

// --- fold_const ---

func (rw *rewriter) foldPass(n lNode) lNode {
	n = mapLogicalChildren(n, rw.foldPass)
	switch t := n.(type) {
	case *lFilter:
		t.Pred = rw.fold(t.Pred)
		if lit, ok := t.Pred.(*ast.Literal); ok && lit.Val.Truthy() {
			rw.fire(RuleFoldConst)
			return t.In
		}
	case *lProject:
		for i := range t.Items {
			if !t.Items[i].Star {
				t.Items[i].Expr = rw.fold(t.Items[i].Expr)
			}
		}
	case *lAggregate:
		for i := range t.GroupBy {
			t.GroupBy[i] = rw.fold(t.GroupBy[i])
		}
	case *lJoin:
		if t.On != nil {
			t.On = rw.fold(t.On)
		}
	case *lSort:
		for i := range t.Keys {
			t.Keys[i].Expr = rw.fold(t.Keys[i].Expr)
		}
	case *lTop:
		t.N = rw.fold(t.N)
	}
	return n
}

func (rw *rewriter) fold(e ast.Expr) ast.Expr {
	out, n := foldExpr(e)
	if n > 0 {
		rw.fireN(RuleFoldConst, n)
	}
	return out
}

// foldExpr folds constant subexpressions bottom-up, returning the rewritten
// expression and the number of collapses. It mirrors the runtime evaluator
// exactly — sqltypes.Apply/Negate/Not with Kleene AND/OR and NULL
// propagation — and leaves any expression whose evaluation errors untouched,
// preserving runtime error behavior. Subquery bodies are opaque (their
// expressions belong to other blocks).
func foldExpr(e ast.Expr) (ast.Expr, int) {
	switch x := e.(type) {
	case *ast.BinExpr:
		var n int
		x.L, n = foldExpr(x.L)
		var nr int
		x.R, nr = foldExpr(x.R)
		n += nr
		if l, ok := x.L.(*ast.Literal); ok {
			if r, ok := x.R.(*ast.Literal); ok {
				if v, err := sqltypes.Apply(x.Op, l.Val, r.Val); err == nil {
					return ast.Lit(v), n + 1
				}
			}
		}
		return x, n
	case *ast.UnaryExpr:
		var n int
		x.E, n = foldExpr(x.E)
		if l, ok := x.E.(*ast.Literal); ok {
			if x.Op == '-' {
				if v, err := sqltypes.Negate(l.Val); err == nil {
					return ast.Lit(v), n + 1
				}
				return x, n
			}
			return ast.Lit(sqltypes.Not(l.Val)), n + 1
		}
		return x, n
	case *ast.IsNullExpr:
		var n int
		x.E, n = foldExpr(x.E)
		if l, ok := x.E.(*ast.Literal); ok {
			return ast.Lit(sqltypes.NewBool(l.Val.IsNull() != x.Negate)), n + 1
		}
		return x, n
	case *ast.BetweenExpr:
		var n, ni int
		x.E, ni = foldExpr(x.E)
		n += ni
		x.Lo, ni = foldExpr(x.Lo)
		n += ni
		x.Hi, ni = foldExpr(x.Hi)
		n += ni
		le, lok := x.E.(*ast.Literal)
		ll, llok := x.Lo.(*ast.Literal)
		lh, lhok := x.Hi.(*ast.Literal)
		if lok && llok && lhok {
			return ast.Lit(sqltypes.Between(le.Val, ll.Val, lh.Val, x.Negate)), n + 1
		}
		return x, n
	case *ast.CaseExpr:
		var n, ni int
		for i := range x.Whens {
			x.Whens[i].Cond, ni = foldExpr(x.Whens[i].Cond)
			n += ni
			x.Whens[i].Then, ni = foldExpr(x.Whens[i].Then)
			n += ni
		}
		if x.Else != nil {
			x.Else, ni = foldExpr(x.Else)
			n += ni
		}
		kept := x.Whens[:0]
		for _, w := range x.Whens {
			if lit, ok := w.Cond.(*ast.Literal); ok {
				if !lit.Val.Truthy() {
					n++ // arm can never be taken
					continue
				}
				// First truthy literal arm: everything after it is dead.
				if len(kept) == 0 {
					return w.Then, n + 1
				}
				x.Whens = kept
				x.Else = w.Then
				return x, n + 1
			}
			kept = append(kept, w)
		}
		if len(kept) == 0 {
			n++
			if x.Else != nil {
				return x.Else, n
			}
			return ast.Lit(sqltypes.Null), n
		}
		x.Whens = kept
		return x, n
	case *ast.FuncCall:
		var n, ni int
		for i := range x.Args {
			x.Args[i], ni = foldExpr(x.Args[i])
			n += ni
		}
		return x, n
	case *ast.InExpr:
		var n, ni int
		x.E, ni = foldExpr(x.E)
		n += ni
		for i := range x.List {
			x.List[i], ni = foldExpr(x.List[i])
			n += ni
		}
		return x, n
	}
	return e, 0
}

// --- push_filter / push_filter_decor ---

func (rw *rewriter) pushPass(n lNode) lNode {
	n = mapLogicalChildren(n, rw.pushPass)
	if f, ok := n.(*lFilter); ok {
		if pushed, ok := rw.tryPush(f); ok {
			return pushed
		}
	}
	return n
}

// unitRef is one named FROM unit with enough context to decide and apply a
// pushdown: its binding and output columns, a setter to splice a replacement
// into the tree, and its position relative to outer joins.
type unitRef struct {
	node      lNode
	set       func(lNode)
	binding   string
	cols      []string
	known     bool // cols resolved (false for CTEs, late-bound tables, stars)
	blocked   bool // null-supplying side of a LEFT JOIN: no pushdown
	joined    bool // under at least one explicit join
	underLeft bool // on the preserved side of a LEFT JOIN
}

func (rw *rewriter) collectUnits(n lNode, set func(lNode), blocked, joined, underLeft bool, out *[]unitRef) {
	switch t := n.(type) {
	case *lCross:
		for i := range t.Units {
			i := i
			rw.collectUnits(t.Units[i], func(x lNode) { t.Units[i] = x }, blocked, joined, underLeft, out)
		}
	case *lJoin:
		rw.collectUnits(t.L, func(x lNode) { t.L = x }, blocked, true, underLeft || t.Kind == ast.JoinLeft, out)
		rw.collectUnits(t.R, func(x lNode) { t.R = x }, blocked || t.Kind == ast.JoinLeft, true, underLeft, out)
	default:
		u := unitRef{node: n, set: set, blocked: blocked, joined: joined, underLeft: underLeft}
		u.binding, u.cols, u.known = rw.unitInfo(n)
		*out = append(*out, u)
	}
}

func (rw *rewriter) unitInfo(n lNode) (binding string, cols []string, known bool) {
	binding = bindingName(n)
	switch t := n.(type) {
	case *lScan:
		if lateBound(t.Name) {
			return binding, nil, false
		}
		tab, err := rw.c.cat.ResolveTable(t.Name)
		if err != nil {
			return binding, nil, false
		}
		return binding, tab.Schema.Names(), true
	case *lDerived:
		p := blockProject(t.Child)
		if p == nil {
			return binding, nil, false
		}
		for i, it := range p.Items {
			if it.Star {
				return binding, nil, false
			}
			cols = append(cols, itemOutName(it, i))
		}
		return binding, cols, true
	}
	return binding, nil, false
}

// tryPush attempts to move filter f's predicate into the single FROM unit it
// references. On success the filter node is consumed (a copy now lives
// inside the unit) and the filter's input is returned.
func (rw *rewriter) tryPush(f *lFilter) (lNode, bool) {
	switch f.In.(type) {
	case *lCross, *lJoin, *lDerived:
	default:
		return nil, false
	}
	pred := f.Pred
	var units []unitRef
	rw.collectUnits(f.In, func(x lNode) { f.In = x }, false, false, false, &units)
	target, ok := targetUnit(units, pred)
	if !ok {
		return nil, false
	}
	u := units[target]
	if u.blocked {
		return nil, false
	}

	switch un := u.node.(type) {
	case *lDerived:
		rule, ok := rw.pushIntoDerived(un, pred)
		if !ok {
			return nil, false
		}
		rw.fire(rule)
		return f.In, true
	case *lScan:
		// A scan under a join cannot receive the predicate directly (the
		// physical compiler assigns conjuncts per block), so wrap it in a
		// filtering derived table: (SELECT * FROM t WHERE pred) binding.
		// References resolve identically inside; each preserved-side row is
		// filtered exactly once either way, so results are byte-identical.
		if !u.joined || !u.known {
			return nil, false
		}
		rule := RulePushFilter
		if u.underLeft {
			rule = RulePushFilterDecor
		}
		if !rw.rules.Has(rule) || !totalPushExpr(pred) {
			return nil, false
		}
		mark := ruleName(rule)
		u.set(&lDerived{
			Alias: u.binding,
			mark:  mark,
			Child: &lProject{
				Items: []ast.SelectItem{{Star: true}},
				In:    &lFilter{In: un, Pred: pred, mark: mark},
			},
		})
		rw.fire(rule)
		return f.In, true
	}
	return nil, false
}

// targetUnit returns the one FROM unit every column reference of pred
// resolves to; a reference that resolves to no unit of the block is to an
// enclosing query and does not count. There is none when a reference is
// ambiguous, unknown or into a unit whose columns are unknown, when pred
// references no column of the block, and when pred embeds a subquery: such
// a predicate (possibly correlated) stays where the user wrote it, since
// moving it would change how often the subquery runs.
func targetUnit(units []unitRef, pred ast.Expr) (int, bool) {
	if ast.HasSubquery(pred) {
		return -1, false
	}
	target := -1
	for _, cr := range ast.ColRefs(pred) {
		idx := -1
		for i, u := range units {
			if cr.Table != "" && cr.Table != u.binding {
				continue
			}
			if !u.known {
				// A unit with unknown columns could expose this name.
				return -1, false
			}
			if !containsStr(u.cols, cr.Name) {
				if cr.Table != "" {
					return -1, false
				}
				continue
			}
			if idx != -1 {
				return -1, false // ambiguous reference
			}
			idx = i
		}
		if idx == -1 {
			continue // a column of an enclosing query
		}
		if target != -1 && target != idx {
			return -1, false // the predicate spans units
		}
		target = idx
	}
	return target, target != -1
}

// pushIntoDerived moves pred inside derived table d, substituting the
// derived table's output columns with the projection expressions they name.
func (rw *rewriter) pushIntoDerived(d *lDerived, pred ast.Expr) (RuleSet, bool) {
	p := blockProject(d.Child)
	if p == nil || p.Distinct {
		return 0, false
	}
	// A filter below TOP changes which rows the limit keeps.
	for n := d.Child; ; {
		if w, ok := n.(*lWith); ok {
			n = w.In
			continue
		}
		if s, ok := n.(*lSort); ok {
			n = s.In
			continue
		}
		if a, ok := n.(*lApply); ok {
			n = a.In
			continue
		}
		if _, ok := n.(*lTop); ok {
			return 0, false
		}
		break
	}

	byName, dup := itemIndex(p.Items)
	if byName == nil {
		return 0, false
	}
	_, _, aggNode, _ := blockParts(p)

	rule := RulePushFilter
	if aggNode != nil {
		// Grouped derived table (the shape decorrelation emits): only
		// predicates over group keys commute with the aggregation — all rows
		// of a group share the key, so filtering rows before grouping keeps
		// exactly the groups that would have survived the outer filter.
		rule = RulePushFilterDecor
		keys := map[string]bool{}
		for _, g := range aggNode.GroupBy {
			keys[g.String()] = true
		}
		for _, cr := range ast.ColRefs(pred) {
			idx, found := byName[cr.Name]
			if !found || dup[cr.Name] {
				return 0, false
			}
			if !keys[p.Items[idx].Expr.String()] {
				return 0, false
			}
		}
	}
	if !rw.rules.Has(rule) {
		return 0, false
	}

	okSubst := true
	subst := mapColRefs(ast.CloneExpr(pred), func(cr *ast.ColRef) ast.Expr {
		if cr.Table != "" && cr.Table != d.Alias {
			okSubst = false
			return cr
		}
		if dup[cr.Name] {
			okSubst = false
			return cr
		}
		idx, found := byName[cr.Name]
		if !found {
			okSubst = false
			return cr
		}
		return ast.CloneExpr(p.Items[idx].Expr)
	})
	if !okSubst || !totalPushExpr(subst) {
		return 0, false
	}

	mark := ruleName(rule)
	if aggNode != nil {
		aggNode.In = &lFilter{In: aggNode.In, Pred: subst, mark: mark}
	} else {
		p.In = &lFilter{In: p.In, Pred: subst, mark: mark}
	}
	d.mark = addMark(d.mark, mark)
	return rule, true
}

// totalPushExpr reports whether e is total: evaluating it can never raise a
// runtime error, regardless of input values. Moving a total predicate can
// never introduce an error the original query would not have raised.
func totalPushExpr(e ast.Expr) bool { return !hasPartialOp(e, false) }

// hasPartialOp reports whether e contains an operation that can raise a
// runtime error; with overColumns, only one whose operands reference a
// column counts. Comparisons, Kleene AND/OR/NOT, LIKE, CONCAT, IS NULL,
// BETWEEN, CASE, and IN over a list are total; arithmetic (overflow,
// division by zero), unary minus, function calls, and subqueries are not.
func hasPartialOp(e ast.Expr, overColumns bool) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		partial := true
		switch t := x.(type) {
		case *ast.Literal, *ast.ColRef, *ast.VarRef, *ast.ParamRef,
			*ast.IsNullExpr, *ast.BetweenExpr, *ast.CaseExpr:
			partial = false
		case *ast.BinExpr:
			switch t.Op {
			case sqltypes.OpAdd, sqltypes.OpSub, sqltypes.OpMul, sqltypes.OpDiv, sqltypes.OpMod:
			default:
				partial = false
			}
		case *ast.UnaryExpr:
			partial = t.Op == '-'
		case *ast.InExpr:
			partial = t.Query != nil
		}
		found = found || partial && (!overColumns || len(ast.ColRefs(x)) > 0)
		return !found
	})
	return found
}

// itemIndex maps output names to item positions; nil when the list has a
// star (names unknown).
func itemIndex(items []ast.SelectItem) (map[string]int, map[string]bool) {
	idx := map[string]int{}
	dup := map[string]bool{}
	for i, it := range items {
		if it.Star {
			return nil, nil
		}
		name := itemOutName(it, i)
		if _, seen := idx[name]; seen {
			dup[name] = true
		} else {
			idx[name] = i
		}
	}
	return idx, dup
}

// --- shared helpers ---

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func addMark(existing, rule string) string {
	if existing == "" {
		return rule
	}
	if strings.Contains(existing, rule) {
		return existing
	}
	return existing + "," + rule
}

// rwSuffix renders a node-label annotation for a fired rule, "" when none.
func rwSuffix(mark string) string {
	if mark == "" {
		return ""
	}
	return " [rw:" + mark + "]"
}

func filterLabel(mark string) string {
	return "Filter" + rwSuffix(mark)
}
