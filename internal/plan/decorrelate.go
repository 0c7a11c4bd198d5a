package plan

import (
	"fmt"

	"aggify/internal/ast"
)

// decorrelatePass is the decorrelate rule. It turns each correlated
// scalar-aggregate subquery in the root block's projection,
//
//	SELECT t.a, (SELECT AGG(...) FROM s WHERE s.k = t.a AND p) FROM t
//
// into a left join against a grouped aggregation,
//
//	SELECT t.a, CASE WHEN d.__m IS NULL THEN __agg_empty('agg') ELSE d.__v END
//	FROM t LEFT JOIN (SELECT s.k AS __k0, 1 AS __m, AGG(...) AS __v
//	                  FROM s WHERE p GROUP BY s.k) d ON d.__k0 = t.a
//
// This is the rewrite that turns the Aggify+Froid pipeline's per-row apply
// into a set-oriented plan — the source of the paper's Q13-style orders-of-
// magnitude wins, and of Table 2's "Aggify+ reads more pages but runs
// faster" effect. Join misses are patched to the aggregate's empty-input
// value (Init+Terminate), evaluated by the __agg_empty pseudo-function, so
// the semantics match the original apply exactly (COUNT(*) = 0 included).
//
// The rule rewrites when safe and declines otherwise; it never changes
// results. It reaches the root block through its TOP and ORDER BY, and
// declines a root with CTEs or UNION ALL and a block with GROUP BY, an
// order-enforced (Eq. 6) projection, or a FROM of other than exactly one
// unit: it covers the UDF-inlining pattern the paper targets.
func (rw *rewriter) decorrelatePass(root lNode) lNode {
	n, set := root, func(x lNode) { root = x }
	if t, ok := n.(*lTop); ok {
		n, set = t.In, func(x lNode) { t.In = x }
	}
	if s, ok := n.(*lSort); ok {
		n, set = s.In, func(x lNode) { s.In = x }
	}
	a, ok := n.(*lApply)
	if !ok {
		return root
	}
	p := a.In.(*lProject)
	where, _, agg, from := blockParts(p)
	if _, cross := from.(*lCross); cross || p.OrderEnforced || agg != nil && len(agg.GroupBy) > 0 {
		return root
	}
	fired := 0
	// cache deduplicates textually identical subqueries (tuple_get(S, 0)
	// and tuple_get(S, 1) from the Aggify guarded rewrite share one join).
	cache := map[string]ast.Expr{}
	for i := range p.Items {
		it := &p.Items[i]
		if it.Star {
			continue
		}
		// Rewrite the item's subqueries in order; the first that declines
		// ends the item.
		for {
			var sq *ast.Subquery
			topSubqueries(it.Expr, func(x *ast.Subquery) {
				if sq == nil {
					sq = x
				}
			})
			if sq == nil {
				break
			}
			key := subqueryKey(sq)
			repl, ok := cache[key]
			if ok {
				repl = ast.CloneExpr(repl)
			} else {
				alias := fmt.Sprintf("__dcor%d", len(cache)+1)
				var derived *ast.Select
				var on ast.Expr
				if repl, derived, on, ok = rw.c.decorrelateSubquery(sq, alias); !ok {
					break
				}
				r, err := rw.c.buildLogical(derived, nil)
				if err != nil {
					break
				}
				from = &lJoin{Kind: ast.JoinLeft, L: from, R: &lDerived{Child: r, Alias: alias}, On: on, mark: ruleName(RuleDecorrelate)}
				cache[key] = repl
			}
			it.Expr = ast.MapExpr(it.Expr, func(x ast.Expr) ast.Expr {
				if x == sq {
					return repl
				}
				return x
			})
			fired++
		}
	}
	if fired == 0 {
		return root
	}
	rw.fireN(RuleDecorrelate, fired)
	switch {
	case len(where) > 0:
		where[len(where)-1].In = from
	case agg != nil:
		agg.In = from
	default:
		p.In = from
	}
	for _, it := range p.Items {
		if !it.Star && ast.HasSubquery(it.Expr) {
			return root
		}
	}
	set(p)
	return root
}

// decorrelateSubquery attempts the rewrite for one scalar subquery, whose
// derived table takes alias. It returns the expression that replaces the
// subquery, the derived table's query, and the join condition. It works on
// the subquery's AST, which the IR carries as is.
func (c *compiler) decorrelateSubquery(sq *ast.Subquery, alias string) (ast.Expr, *ast.Select, ast.Expr, bool) {
	s := ast.CloneSelect(sq.Query)
	if len(s.With) > 0 || s.Union != nil || s.Distinct || s.Top != nil || s.OrderEnforced || len(s.GroupBy) > 0 || s.Having != nil {
		return nil, nil, nil, false
	}
	flattenDerived(s)
	if len(s.Items) != 1 || s.Items[0].Star {
		return nil, nil, nil, false
	}
	agg, ok := s.Items[0].Expr.(*ast.FuncCall)
	if !ok {
		return nil, nil, nil, false
	}
	spec, isAgg := c.cat.AggSpec(agg.Name)
	if !isAgg || spec.OrderSensitive {
		return nil, nil, nil, false
	}

	// Column names available from the subquery's own FROM units.
	units := make([]*fromUnit, len(s.From))
	for i, te := range s.From {
		n, err := c.buildUnit(te, nil)
		if err != nil {
			return nil, nil, nil, false
		}
		if units[i], err = c.newFromUnit(i, n, nil); err != nil {
			return nil, nil, nil, false
		}
	}
	// hasRef reports whether e references a column that is (local) or is
	// not (!local) one of the subquery's own.
	hasRef := func(e ast.Expr, local bool) bool {
		found := false
		ast.WalkExpr(e, func(x ast.Expr) bool {
			if cr, ok := x.(*ast.ColRef); ok {
				isLocal := false
				for _, u := range units {
					isLocal = isLocal || u.hasCol(cr)
				}
				found = found || isLocal == local
			}
			return !found
		})
		return found
	}
	localCol := func(e ast.Expr) bool {
		cr, ok := e.(*ast.ColRef)
		return ok && hasRef(cr, true)
	}

	// Split WHERE into correlation equalities (local col = outer expr) and
	// local residue.
	var corrCols []ast.Expr
	var corrOuter []ast.Expr
	var localPreds []ast.Expr
	for _, cj := range splitConjuncts(s.Where) {
		if !hasRef(cj, false) {
			localPreds = append(localPreds, cj)
			continue
		}
		l, r, isEq := eqSides(cj)
		if !isEq {
			return nil, nil, nil, false
		}
		switch {
		case localCol(l) && !hasRef(r, true):
		case localCol(r) && !hasRef(l, true):
			l, r = r, l
		default:
			return nil, nil, nil, false
		}
		// The outer side must reference at least one column (otherwise it
		// would be local already) and no subqueries of its own.
		if ast.HasSubquery(r) {
			return nil, nil, nil, false
		}
		corrCols = append(corrCols, l)
		corrOuter = append(corrOuter, r)
	}
	if len(corrCols) == 0 {
		return nil, nil, nil, false
	}

	// Substitute outer expressions with the (join-equal) correlation columns
	// inside the aggregate arguments; afterwards everything must be local.
	// The derived table aggregates every inner group, including groups no
	// outer row joins, so an operation that can raise on a column value
	// (arithmetic, a function call) would raise where the apply never runs.
	substArgs := make([]ast.Expr, len(agg.Args))
	for i, a := range agg.Args {
		sub := ast.CloneExpr(a)
		for j, outer := range corrOuter {
			key := outer.String()
			sub = ast.MapExpr(sub, func(x ast.Expr) ast.Expr {
				if x.String() == key {
					return ast.CloneExpr(corrCols[j])
				}
				return x
			})
		}
		if hasRef(sub, false) || hasPartialOp(sub, true) {
			return nil, nil, nil, false
		}
		substArgs[i] = sub
	}
	for _, p := range localPreds {
		if hasPartialOp(p, true) {
			return nil, nil, nil, false
		}
	}

	derived := &ast.Select{From: s.From}
	var on ast.Expr
	for j, col := range corrCols {
		kname := fmt.Sprintf("__k%d", j)
		derived.Items = append(derived.Items, ast.SelectItem{Expr: col, Alias: kname})
		on = ast.And(on, ast.Eq(ast.QCol(alias, kname), corrOuter[j]))
	}
	derived.Items = append(derived.Items,
		ast.SelectItem{Expr: ast.IntLit(1), Alias: "__m"},
		ast.SelectItem{Expr: &ast.FuncCall{Name: agg.Name, Args: substArgs, Star: agg.Star}, Alias: "__v"},
	)
	derived.GroupBy = corrCols
	derived.Where = ast.And(localPreds...)

	repl := &ast.CaseExpr{
		Whens: []ast.WhenClause{{
			Cond: &ast.IsNullExpr{E: ast.QCol(alias, "__m")},
			Then: &ast.FuncCall{Name: "__agg_empty", Args: []ast.Expr{ast.StrLit(agg.Name)}},
		}},
		Else: ast.QCol(alias, "__v"),
	}
	return repl, derived, on, true
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
