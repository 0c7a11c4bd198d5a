package plan

import (
	"fmt"

	"aggify/internal/ast"
)

// DecorrelateSelect applies the apply-decorrelation rewrite: a correlated
// scalar-aggregate subquery in the projection,
//
//	SELECT t.a, (SELECT AGG(...) FROM s WHERE s.k = t.a AND p) FROM t
//
// becomes a left join against a grouped aggregation,
//
//	SELECT t.a, CASE WHEN d.__m IS NULL THEN __agg_empty('agg') ELSE d.__v END
//	FROM t LEFT JOIN (SELECT s.k AS __k, 1 AS __m, AGG(...) AS __v
//	                  FROM s WHERE p GROUP BY s.k) d ON d.__k = t.a
//
// This is the rewrite that turns the Aggify+Froid pipeline's per-row apply
// into a set-oriented plan — the source of the paper's Q13-style orders-of-
// magnitude wins, and of Table 2's "Aggify+ reads more pages but runs
// faster" effect. Join misses are patched to the aggregate's empty-input
// value (Init+Terminate), evaluated by the __agg_empty pseudo-function, so
// the semantics match the original apply exactly (COUNT(*) = 0 included).
//
// The rewrite is applied when safe and left alone otherwise; it never
// changes results. It returns a rewritten copy (or q itself when nothing
// applied).
func DecorrelateSelect(c *compiler, q *ast.Select) *ast.Select {
	// Only rewrite blocks with a single FROM unit and no aggregation of
	// their own; this covers the UDF-inlining pattern the paper targets.
	if len(q.From) != 1 || len(q.GroupBy) > 0 || q.Union != nil || len(q.With) > 0 || q.OrderEnforced {
		return q
	}
	out := *q
	items := make([]ast.SelectItem, len(q.Items))
	copy(items, q.Items)
	out.Items = items
	from := q.From[0]
	changed := false
	serial := 0
	// cache deduplicates textually identical subqueries (tuple_get(S, 0)
	// and tuple_get(S, 1) from the Aggify guarded rewrite share one join).
	cache := map[string]ast.Expr{}
	for i, it := range items {
		if it.Star || it.Expr == nil {
			continue
		}
		newExpr, join, ok := c.tryDecorrelate(it.Expr, &serial, from, cache)
		if !ok {
			continue
		}
		items[i] = ast.SelectItem{Expr: newExpr, Alias: it.Alias}
		from = join
		changed = true
	}
	if !changed {
		return q
	}
	out.From = []ast.TableExpr{from}
	return &out
}

// tryDecorrelate searches e for a decorrelatable scalar subquery. On
// success it returns the rewritten expression and the join to splice in.
// It rewrites at most one subquery per call (the caller loops via serial
// numbering across items; nested multiple subqueries in one expression are
// handled by repeated application).
func (c *compiler) tryDecorrelate(e ast.Expr, serial *int, left ast.TableExpr, cache map[string]ast.Expr) (ast.Expr, ast.TableExpr, bool) {
	var target *ast.Subquery
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if target != nil {
			return false
		}
		if sq, ok := x.(*ast.Subquery); ok && !sq.Exists {
			target = sq
			return false
		}
		return true
	})
	if target == nil {
		return nil, nil, false
	}
	var repl ast.Expr
	join := left
	key := subqueryKey(target)
	if cached, ok := cache[key]; ok {
		repl = ast.CloneExpr(cached)
	} else {
		var ok bool
		repl, join, ok = c.decorrelateSubquery(target, serial, left)
		if !ok {
			return nil, nil, false
		}
		cache[key] = repl
	}
	newExpr := replaceExpr(e, target, repl)
	// Try to decorrelate further subqueries within the same item.
	if again, join2, ok2 := c.tryDecorrelate(newExpr, serial, join, cache); ok2 {
		return again, join2, true
	}
	return newExpr, join, true
}

// replaceExpr returns e with the (pointer-identical) node old replaced by
// repl.
func replaceExpr(e ast.Expr, old, repl ast.Expr) ast.Expr {
	if e == old {
		return repl
	}
	switch x := e.(type) {
	case *ast.BinExpr:
		return &ast.BinExpr{Op: x.Op, L: replaceExpr(x.L, old, repl), R: replaceExpr(x.R, old, repl)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: x.Op, E: replaceExpr(x.E, old, repl)}
	case *ast.IsNullExpr:
		return &ast.IsNullExpr{E: replaceExpr(x.E, old, repl), Negate: x.Negate}
	case *ast.CaseExpr:
		out := &ast.CaseExpr{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, ast.WhenClause{
				Cond: replaceExpr(w.Cond, old, repl),
				Then: replaceExpr(w.Then, old, repl),
			})
		}
		if x.Else != nil {
			out.Else = replaceExpr(x.Else, old, repl)
		}
		return out
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, replaceExpr(a, old, repl))
		}
		return out
	case *ast.BetweenExpr:
		return &ast.BetweenExpr{
			E:  replaceExpr(x.E, old, repl),
			Lo: replaceExpr(x.Lo, old, repl),
			Hi: replaceExpr(x.Hi, old, repl), Negate: x.Negate,
		}
	case *ast.InExpr:
		out := &ast.InExpr{E: replaceExpr(x.E, old, repl), Negate: x.Negate, Query: x.Query}
		for _, it := range x.List {
			out.List = append(out.List, replaceExpr(it, old, repl))
		}
		return out
	default:
		return e
	}
}

// decorrelateSubquery attempts the rewrite for one scalar subquery.
func (c *compiler) decorrelateSubquery(sq *ast.Subquery, serial *int, left ast.TableExpr) (ast.Expr, ast.TableExpr, bool) {
	s := ast.CloneSelect(sq.Query)
	if len(s.With) > 0 || s.Union != nil || s.Distinct || s.Top != nil || s.OrderEnforced || len(s.GroupBy) > 0 || s.Having != nil {
		return nil, nil, false
	}
	flattenDerived(s)
	if len(s.Items) != 1 || s.Items[0].Star {
		return nil, nil, false
	}
	agg, ok := s.Items[0].Expr.(*ast.FuncCall)
	if !ok {
		return nil, nil, false
	}
	spec, isAgg := c.cat.AggSpec(agg.Name)
	if !isAgg || spec.OrderSensitive {
		return nil, nil, false
	}

	// Column names available from the subquery's own FROM units.
	units := make([]*fromUnit, len(s.From))
	for i, te := range s.From {
		n, err := c.buildUnit(te, nil)
		if err != nil {
			return nil, nil, false
		}
		if units[i], err = c.newFromUnit(i, n, nil); err != nil {
			return nil, nil, false
		}
	}
	localCol := func(cr *ast.ColRef) bool {
		for _, u := range units {
			if u.hasCol(cr) {
				return true
			}
		}
		return false
	}
	allLocal := func(e ast.Expr) bool {
		local := true
		ast.WalkExpr(e, func(x ast.Expr) bool {
			if cr, ok := x.(*ast.ColRef); ok && !localCol(cr) {
				local = false
			}
			return true
		})
		return local
	}

	// Split WHERE into correlation equalities (local col = outer expr) and
	// local residue.
	var corrCols []*ast.ColRef
	var corrOuter []ast.Expr
	var localPreds []ast.Expr
	for _, cj := range splitConjuncts(s.Where) {
		if allLocal(cj) {
			localPreds = append(localPreds, cj)
			continue
		}
		l, r, isEq := eqSides(cj)
		if !isEq {
			return nil, nil, false
		}
		var col *ast.ColRef
		var outer ast.Expr
		if cr, ok := l.(*ast.ColRef); ok && localCol(cr) && !containsLocalRef(r, localCol) {
			col, outer = cr, r
		} else if cr, ok := r.(*ast.ColRef); ok && localCol(cr) && !containsLocalRef(l, localCol) {
			col, outer = cr, l
		} else {
			return nil, nil, false
		}
		// The outer side must reference at least one column (otherwise it
		// would be local already) and no subqueries of its own.
		if ast.HasSubquery(outer) {
			return nil, nil, false
		}
		corrCols = append(corrCols, col)
		corrOuter = append(corrOuter, outer)
	}
	if len(corrCols) == 0 {
		return nil, nil, false
	}

	// Substitute outer expressions with the (join-equal) correlation columns
	// inside the aggregate arguments; afterwards everything must be local.
	substArgs := make([]ast.Expr, len(agg.Args))
	for i, a := range agg.Args {
		sub := ast.CloneExpr(a)
		for j, outer := range corrOuter {
			sub = substituteByString(sub, outer.String(), corrCols[j])
		}
		if !allLocal(sub) {
			return nil, nil, false
		}
		substArgs[i] = sub
	}
	for _, p := range localPreds {
		if !allLocal(p) {
			return nil, nil, false
		}
	}

	*serial++
	alias := fmt.Sprintf("__dcor%d", *serial)

	derived := &ast.Select{From: s.From}
	var groupBy []ast.Expr
	var on ast.Expr
	for j, col := range corrCols {
		kname := fmt.Sprintf("__k%d", j)
		derived.Items = append(derived.Items, ast.SelectItem{Expr: col, Alias: kname})
		groupBy = append(groupBy, col)
		on = ast.And(on, ast.Eq(ast.QCol(alias, kname), corrOuter[j]))
	}
	derived.Items = append(derived.Items,
		ast.SelectItem{Expr: ast.IntLit(1), Alias: "__m"},
		ast.SelectItem{Expr: &ast.FuncCall{Name: agg.Name, Args: substArgs, Star: agg.Star}, Alias: "__v"},
	)
	derived.GroupBy = groupBy
	derived.Where = ast.And(localPreds...)

	join := &ast.Join{
		Kind: ast.JoinLeft,
		L:    left,
		R:    &ast.SubqueryRef{Query: derived, Alias: alias},
		On:   on,
	}
	repl := &ast.CaseExpr{
		Whens: []ast.WhenClause{{
			Cond: &ast.IsNullExpr{E: ast.QCol(alias, "__m")},
			Then: &ast.FuncCall{Name: "__agg_empty", Args: []ast.Expr{ast.StrLit(agg.Name)}},
		}},
		Else: ast.QCol(alias, "__v"),
	}
	return repl, join, true
}

func containsLocalRef(e ast.Expr, localCol func(*ast.ColRef) bool) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if cr, ok := x.(*ast.ColRef); ok && localCol(cr) {
			found = true
		}
		return true
	})
	return found
}

// substituteByString replaces every subtree of e whose String() rendering
// equals key with repl (used to replace outer correlation expressions with
// the join-equal local column).
func substituteByString(e ast.Expr, key string, repl ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	if e.String() == key {
		return ast.CloneExpr(repl)
	}
	switch x := e.(type) {
	case *ast.BinExpr:
		return &ast.BinExpr{Op: x.Op, L: substituteByString(x.L, key, repl), R: substituteByString(x.R, key, repl)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: x.Op, E: substituteByString(x.E, key, repl)}
	case *ast.IsNullExpr:
		return &ast.IsNullExpr{E: substituteByString(x.E, key, repl), Negate: x.Negate}
	case *ast.CaseExpr:
		out := &ast.CaseExpr{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, ast.WhenClause{
				Cond: substituteByString(w.Cond, key, repl),
				Then: substituteByString(w.Then, key, repl),
			})
		}
		if x.Else != nil {
			out.Else = substituteByString(x.Else, key, repl)
		}
		return out
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, substituteByString(a, key, repl))
		}
		return out
	case *ast.BetweenExpr:
		return &ast.BetweenExpr{
			E:  substituteByString(x.E, key, repl),
			Lo: substituteByString(x.Lo, key, repl),
			Hi: substituteByString(x.Hi, key, repl), Negate: x.Negate,
		}
	default:
		return e
	}
}

// flattenDerived inlines trivial derived tables (pure projections without
// aggregation, DISTINCT, TOP, set operations, or CTEs) into the enclosing
// FROM list, exposing their predicates — in particular the correlation
// equalities that the Aggify rewrite leaves inside its "FROM (Q) Q"
// sub-select (Eq. 5).
func flattenDerived(s *ast.Select) {
	var newFrom []ast.TableExpr
	for _, te := range s.From {
		sr, ok := te.(*ast.SubqueryRef)
		if !ok || !flattenable(sr.Query) {
			newFrom = append(newFrom, te)
			continue
		}
		inner := sr.Query
		// Build the substitution: alias.name / name -> inner item expr.
		subst := map[string]ast.Expr{}
		ambiguous := map[string]bool{}
		allPlain := true
		for i, it := range inner.Items {
			if it.Star {
				allPlain = false
				break
			}
			name := it.Alias
			if name == "" {
				if cr, isCol := it.Expr.(*ast.ColRef); isCol {
					name = cr.Name
				} else {
					name = fmt.Sprintf("col%d", i+1)
				}
			}
			if _, dup := subst[name]; dup {
				ambiguous[name] = true
			}
			subst[name] = it.Expr
		}
		if !allPlain {
			newFrom = append(newFrom, te)
			continue
		}
		replace := func(e ast.Expr) ast.Expr {
			return mapColRefs(e, func(cr *ast.ColRef) ast.Expr {
				if cr.Table != "" && cr.Table != sr.Alias {
					return cr
				}
				if ambiguous[cr.Name] {
					return cr
				}
				if repl, ok := subst[cr.Name]; ok {
					return ast.CloneExpr(repl)
				}
				return cr
			})
		}
		for i := range s.Items {
			if !s.Items[i].Star {
				s.Items[i].Expr = replace(s.Items[i].Expr)
			}
		}
		if s.Where != nil {
			s.Where = replace(s.Where)
		}
		newFrom = append(newFrom, inner.From...)
		s.Where = ast.And(s.Where, inner.Where)
	}
	s.From = newFrom
}

func flattenable(q *ast.Select) bool {
	if len(q.With) > 0 || q.Union != nil || q.Distinct || q.Top != nil ||
		len(q.GroupBy) > 0 || q.Having != nil || len(q.OrderBy) > 0 || q.OrderEnforced {
		return false
	}
	if len(q.From) == 0 {
		return false
	}
	// No aggregate-looking calls in the projection (conservative: any
	// function call whose arguments reference columns could be an
	// aggregate; only plain items are flattened).
	for _, it := range q.Items {
		if it.Star {
			return false
		}
	}
	return true
}

// mapColRefs rewrites column references through fn. Subqueries and
// literals pass through unchanged; correlation into flattened derived tables
// from deeper subqueries is left intact (names remain valid since the inner
// FROM units are spliced in).
func mapColRefs(e ast.Expr, fn func(*ast.ColRef) ast.Expr) ast.Expr {
	return ast.MapExpr(e, func(x ast.Expr) ast.Expr {
		if cr, ok := x.(*ast.ColRef); ok {
			return fn(cr)
		}
		return x
	})
}
