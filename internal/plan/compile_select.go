package plan

import (
	"fmt"
	"sort"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Compile compiles a SELECT query into a reusable Plan: decorrelation, then
// the logical rewrite pass (logical.go + rewrite.go), then physical
// compilation of the normalized AST.
func Compile(cat Catalog, opts Options, q *ast.Select) (*Plan, error) {
	sc := &stampingCatalog{inner: cat, seen: map[*storage.Table]uint64{}}
	c := &compiler{cat: sc, opts: opts}
	if !opts.DisableDecorrelation {
		q = DecorrelateSelect(c, q)
	}
	rq, rewrites, declined := c.rewriteSelect(q)
	builder, cols, n, err := c.compileSelect(rq, nil, nil)
	if err != nil && len(rewrites) > 0 {
		// A rewritten query must never fail where the original compiles;
		// fall back so a rule bug degrades to a missed optimization.
		c2 := &compiler{cat: sc, opts: opts}
		builder, cols, n, err = c2.compileSelect(q, nil, nil)
		rewrites, declined = nil, nil
	}
	if err != nil {
		return nil, err
	}
	return &Plan{Columns: cols, Explain: n, build: builder, Rewrites: rewrites, Declined: declined, Stamps: sc.stamps()}, nil
}

// compileSelect compiles a query (with CTEs and UNION ALL) against an
// enclosing scope. It returns the operator builder, output column names,
// and the explain node.
func (c *compiler) compileSelect(q *ast.Select, parent *scope, env *cteEnv) (opBuilder, []string, *Node, error) {
	var err error
	if env, err = c.registerCTEs(q, parent, env); err != nil {
		return nil, nil, nil, err
	}
	if q.Union == nil {
		builder, outSc, n, err := c.compileCore(q, parent, env, q.OrderBy, q.Top)
		if err != nil {
			return nil, nil, nil, err
		}
		return builder, outSc.names(), n, nil
	}
	// UNION ALL: compile each branch core, concatenate, then order/top.
	var builders []opBuilder
	var nodes []*Node
	var outSc *scope
	for branch := q; branch != nil; branch = branch.Union {
		b, sc, n, err := c.compileCore(branch, parent, env, nil, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		if outSc == nil {
			outSc = sc
		} else if sc.width() != outSc.width() {
			return nil, nil, nil, errf("UNION ALL branches have different column counts (%d vs %d)", outSc.width(), sc.width())
		}
		builders = append(builders, b)
		nodes = append(nodes, n)
	}
	n := node("UnionAll", nodes...)
	builder := annotate(func(bc *buildCtx) exec.Operator {
		children := make([]exec.Operator, len(builders))
		for i, b := range builders {
			children[i] = b(bc)
		}
		return &exec.ConcatOp{Children: children}
	}, n)
	builder, n, err = c.applyOrderTop(builder, n, outSc, q.OrderBy, q.Top, env)
	if err != nil {
		return nil, nil, nil, err
	}
	return builder, outSc.names(), n, nil
}

// registerCTEs binds the query's WITH clause into a new environment.
func (c *compiler) registerCTEs(q *ast.Select, parent *scope, env *cteEnv) (*cteEnv, error) {
	for i := range q.With {
		cte := q.With[i]
		b, err := c.compileCTE(cte, parent, env)
		if err != nil {
			return nil, err
		}
		env = &cteEnv{parent: env, binding: b}
	}
	return env, nil
}

func cteSelfRef(q *ast.Select, name string) bool {
	found := false
	var checkFrom func(te ast.TableExpr)
	checkFrom = func(te ast.TableExpr) {
		switch t := te.(type) {
		case *ast.TableRef:
			if t.Name == name {
				found = true
			}
		case *ast.SubqueryRef:
			for _, f := range t.Query.From {
				checkFrom(f)
			}
		case *ast.Join:
			checkFrom(t.L)
			checkFrom(t.R)
		}
	}
	for branch := q; branch != nil; branch = branch.Union {
		for _, te := range branch.From {
			checkFrom(te)
		}
	}
	return found
}

func (c *compiler) compileCTE(cte ast.CTE, parent *scope, env *cteEnv) (*cteBinding, error) {
	rename := func(cols []string) ([]colBinding, error) {
		out := make([]colBinding, len(cols))
		for i, n := range cols {
			out[i] = colBinding{Name: n}
		}
		if len(cte.Cols) > 0 {
			if len(cte.Cols) != len(cols) {
				return nil, errf("CTE %s declares %d columns but its query produces %d", cte.Name, len(cte.Cols), len(cols))
			}
			for i, n := range cte.Cols {
				out[i] = colBinding{Name: strings.ToLower(n)}
			}
		}
		return out, nil
	}
	if !cteSelfRef(cte.Query, cte.Name) {
		builder, cols, n, err := c.compileSelect(cte.Query, parent, env)
		if err != nil {
			return nil, err
		}
		bcols, err := rename(cols)
		if err != nil {
			return nil, err
		}
		return &cteBinding{
			name: cte.Name,
			cols: bcols,
			instantiate: func() (opBuilder, *Node, error) {
				cn := node("CTE("+cte.Name+")", n)
				return annotate(builder, cn), cn, nil
			},
		}, nil
	}
	// Recursive CTE: split UNION ALL branches into seed and recursive sets.
	var seeds, recs []*ast.Select
	for branch := cte.Query; branch != nil; branch = branch.Union {
		one := *branch
		one.Union = nil
		one.OrderBy = nil
		one.Top = nil
		one.With = nil
		if cteSelfRef(&one, cte.Name) {
			recs = append(recs, &one)
		} else {
			seeds = append(seeds, &one)
		}
	}
	if len(seeds) == 0 {
		return nil, errf("recursive CTE %s has no non-recursive seed branch", cte.Name)
	}
	var seedBuilders []opBuilder
	var seedCols []string
	var seedNodes []*Node
	for _, s := range seeds {
		b, cols, n, err := c.compileSelect(s, parent, env)
		if err != nil {
			return nil, err
		}
		if seedCols == nil {
			seedCols = cols
		}
		seedBuilders = append(seedBuilders, b)
		seedNodes = append(seedNodes, n)
	}
	bcols, err := rename(seedCols)
	if err != nil {
		return nil, err
	}
	key := new(int) // unique identity for per-execution delta buffers
	binding := &cteBinding{name: cte.Name, cols: bcols}
	// While compiling the recursive branches, self-references resolve to the
	// delta scan; references elsewhere instantiate the full recursive CTE.
	recBinding := &cteBinding{name: cte.Name, cols: bcols, deltaKey: key}
	recEnv := &cteEnv{parent: env, binding: recBinding}
	var recBuilders []opBuilder
	var recNodes []*Node
	for _, r := range recs {
		b, _, n, err := c.compileSelect(r, parent, recEnv)
		if err != nil {
			return nil, err
		}
		recBuilders = append(recBuilders, b)
		recNodes = append(recNodes, n)
	}
	maxRec := c.opts.MaxRecursion
	binding.instantiate = func() (opBuilder, *Node, error) {
		builder := func(bc *buildCtx) exec.Operator {
			seedChildren := make([]exec.Operator, len(seedBuilders))
			for i, b := range seedBuilders {
				seedChildren[i] = b(bc)
			}
			recChildren := make([]exec.Operator, len(recBuilders))
			for i, b := range recBuilders {
				recChildren[i] = b(bc)
			}
			return &exec.RecursiveCTEOp{
				Seed:          &exec.ConcatOp{Children: seedChildren},
				Recursive:     &exec.ConcatOp{Children: recChildren},
				Delta:         bc.delta(key),
				MaxIterations: maxRec,
			}
		}
		n := node("RecursiveCTE("+cte.Name+")", append(append([]*Node{}, seedNodes...), recNodes...)...)
		return annotate(builder, n), n, nil
	}
	return binding, nil
}

// aggCall describes one distinct aggregate invocation in a query block.
type aggCall struct {
	key  string // canonical String() of the call
	call *ast.FuncCall
	spec *exec.AggSpec
}

// findAggCalls collects aggregate invocations in e without descending into
// subqueries (whose aggregates belong to their own block).
func (c *compiler) findAggCalls(e ast.Expr, into *[]aggCall, seen map[string]bool) error {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.Subquery:
		return nil
	case *ast.FuncCall:
		name := strings.ToLower(x.Name)
		spec, ok := c.cat.AggSpec(name)
		if ok {
			key := x.String()
			if !seen[key] {
				seen[key] = true
				*into = append(*into, aggCall{key: key, call: x, spec: spec})
			}
			// Aggregate arguments must not contain nested aggregates.
			var nested []aggCall
			nestedSeen := map[string]bool{}
			for _, a := range x.Args {
				if err := c.findAggCalls(a, &nested, nestedSeen); err != nil {
					return err
				}
			}
			if len(nested) > 0 {
				return errf("nested aggregate in arguments of %s", name)
			}
			return nil
		}
		for _, a := range x.Args {
			if err := c.findAggCalls(a, into, seen); err != nil {
				return err
			}
		}
		return nil
	case *ast.BinExpr:
		if err := c.findAggCalls(x.L, into, seen); err != nil {
			return err
		}
		return c.findAggCalls(x.R, into, seen)
	case *ast.UnaryExpr:
		return c.findAggCalls(x.E, into, seen)
	case *ast.IsNullExpr:
		return c.findAggCalls(x.E, into, seen)
	case *ast.CaseExpr:
		for _, w := range x.Whens {
			if err := c.findAggCalls(w.Cond, into, seen); err != nil {
				return err
			}
			if err := c.findAggCalls(w.Then, into, seen); err != nil {
				return err
			}
		}
		return c.findAggCalls(x.Else, into, seen)
	case *ast.InExpr:
		if err := c.findAggCalls(x.E, into, seen); err != nil {
			return err
		}
		for _, it := range x.List {
			if err := c.findAggCalls(it, into, seen); err != nil {
				return err
			}
		}
		return nil
	case *ast.BetweenExpr:
		if err := c.findAggCalls(x.E, into, seen); err != nil {
			return err
		}
		if err := c.findAggCalls(x.Lo, into, seen); err != nil {
			return err
		}
		return c.findAggCalls(x.Hi, into, seen)
	}
	return nil
}

// substPostAgg rewrites e so that group-by expressions and aggregate calls
// become references to the synthetic post-aggregation columns ("#agg".#N).
func substPostAgg(e ast.Expr, keyIndex map[string]int, aggIndex map[string]int, nKeys int) ast.Expr {
	if e == nil {
		return nil
	}
	if i, ok := keyIndex[e.String()]; ok {
		return ast.QCol("#agg", fmt.Sprintf("#%d", i))
	}
	if fc, ok := e.(*ast.FuncCall); ok {
		if j, ok := aggIndex[fc.String()]; ok {
			return ast.QCol("#agg", fmt.Sprintf("#%d", nKeys+j))
		}
	}
	switch x := e.(type) {
	case *ast.BinExpr:
		return &ast.BinExpr{Op: x.Op, L: substPostAgg(x.L, keyIndex, aggIndex, nKeys), R: substPostAgg(x.R, keyIndex, aggIndex, nKeys)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: x.Op, E: substPostAgg(x.E, keyIndex, aggIndex, nKeys)}
	case *ast.IsNullExpr:
		return &ast.IsNullExpr{E: substPostAgg(x.E, keyIndex, aggIndex, nKeys), Negate: x.Negate}
	case *ast.CaseExpr:
		out := &ast.CaseExpr{Else: substPostAgg(x.Else, keyIndex, aggIndex, nKeys)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, ast.WhenClause{
				Cond: substPostAgg(w.Cond, keyIndex, aggIndex, nKeys),
				Then: substPostAgg(w.Then, keyIndex, aggIndex, nKeys),
			})
		}
		return out
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, substPostAgg(a, keyIndex, aggIndex, nKeys))
		}
		return out
	case *ast.BetweenExpr:
		return &ast.BetweenExpr{
			E:      substPostAgg(x.E, keyIndex, aggIndex, nKeys),
			Lo:     substPostAgg(x.Lo, keyIndex, aggIndex, nKeys),
			Hi:     substPostAgg(x.Hi, keyIndex, aggIndex, nKeys),
			Negate: x.Negate,
		}
	case *ast.InExpr:
		out := &ast.InExpr{E: substPostAgg(x.E, keyIndex, aggIndex, nKeys), Negate: x.Negate, Query: x.Query}
		for _, it := range x.List {
			out.List = append(out.List, substPostAgg(it, keyIndex, aggIndex, nKeys))
		}
		return out
	default:
		return e
	}
}

// compileCore compiles one SELECT block (no UNION handling) including its
// projection, aggregation, DISTINCT, and — when orderBy/top are passed —
// ordering and limiting.
func (c *compiler) compileCore(q *ast.Select, parent *scope, env *cteEnv, orderBy []ast.OrderItem, top ast.Expr) (opBuilder, *scope, *Node, error) {
	builder, inScope, n, err := c.compileFrom(q.From, q.Where, parent, env)
	if err != nil {
		return nil, nil, nil, err
	}

	// Collect aggregate calls from projection, HAVING, and ORDER BY.
	var aggs []aggCall
	seen := map[string]bool{}
	for _, it := range q.Items {
		if it.Star {
			continue
		}
		if err := c.findAggCalls(it.Expr, &aggs, seen); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := c.findAggCalls(q.Having, &aggs, seen); err != nil {
		return nil, nil, nil, err
	}
	for _, o := range orderBy {
		if err := c.findAggCalls(o.Expr, &aggs, seen); err != nil {
			return nil, nil, nil, err
		}
	}

	items := q.Items
	having := q.Having
	curScope := inScope
	if len(aggs) > 0 || len(q.GroupBy) > 0 {
		builder, curScope, n, err = c.compileAggregation(q, builder, inScope, n, env, aggs)
		if err != nil {
			return nil, nil, nil, err
		}
		// Rewrite items / having / order-by to reference post-agg columns.
		keyIndex := map[string]int{}
		for i, g := range q.GroupBy {
			keyIndex[g.String()] = i
		}
		aggIndex := map[string]int{}
		for j, a := range aggs {
			aggIndex[a.key] = j
		}
		items = make([]ast.SelectItem, len(q.Items))
		for i, it := range q.Items {
			if it.Star {
				return nil, nil, nil, errf("SELECT * is not allowed with aggregation")
			}
			// Substitution replaces group-key column refs with internal
			// #agg.#N refs; name the output after the original expression so
			// unaliased group keys keep their column name (outer blocks
			// reference derived tables by it).
			alias := it.Alias
			if cr, ok := it.Expr.(*ast.ColRef); ok && alias == "" {
				alias = cr.Name
			}
			items[i] = ast.SelectItem{Expr: substPostAgg(it.Expr, keyIndex, aggIndex, len(q.GroupBy)), Alias: alias}
		}
		having = substPostAgg(q.Having, keyIndex, aggIndex, len(q.GroupBy))
		if len(orderBy) > 0 {
			rewritten := make([]ast.OrderItem, len(orderBy))
			for i, o := range orderBy {
				rewritten[i] = ast.OrderItem{Expr: substPostAgg(o.Expr, keyIndex, aggIndex, len(q.GroupBy)), Desc: o.Desc}
			}
			orderBy = rewritten
		}
		if having != nil {
			if builder, n, err = c.addFilter(builder, n, "Filter(HAVING)", having, curScope, env); err != nil {
				return nil, nil, nil, err
			}
		}
	} else if q.Having != nil {
		return nil, nil, nil, errf("HAVING requires aggregation")
	}

	// Common-subquery elimination: when the projection evaluates textually
	// identical scalar subqueries several times per row (a pattern the
	// Froid inliner produces for Aggify's guarded rewrites), hoist each
	// distinct subquery into a shared pre-projection so it runs once per
	// row.
	if len(aggs) == 0 && len(q.GroupBy) == 0 {
		var err error
		builder, curScope, items, n, err = c.hoistCommonSubqueries(builder, curScope, items, env, n)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// Projection with star expansion.
	type projItem struct {
		scalar exec.Scalar
		name   string
		expr   ast.Expr // nil for star-expanded columns
	}
	var proj []projItem
	for _, it := range items {
		if it.Star {
			for ord, col := range curScope.cols {
				if it.Alias != "" && col.Qual != it.Alias {
					continue
				}
				proj = append(proj, projItem{scalar: exec.ColScalar(ord), name: col.Name})
			}
			continue
		}
		s, err := c.compileExpr(it.Expr, curScope, env)
		if err != nil {
			return nil, nil, nil, err
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*ast.ColRef); ok {
				name = cr.Name
			} else {
				name = fmt.Sprintf("col%d", len(proj)+1)
			}
		}
		proj = append(proj, projItem{scalar: s, name: name, expr: it.Expr})
	}
	if len(proj) == 0 {
		return nil, nil, nil, errf("empty projection")
	}

	// ORDER BY: resolve against the projected output (aliases and projected
	// expressions); otherwise compile against the pre-projection scope and
	// carry hidden sort keys through the projection.
	outScope := &scope{parent: parent}
	for _, p := range proj {
		outScope.add("", p.name, sqltypes.Unknown)
	}
	type sortKey struct {
		ordinal int
		desc    bool
	}
	var sortKeys []sortKey
	hiddenStart := len(proj)
	for _, o := range orderBy {
		ord := -1
		// By alias/name.
		if cr, ok := o.Expr.(*ast.ColRef); ok && cr.Table == "" {
			for i, p := range proj[:hiddenStart] {
				if p.name == cr.Name {
					ord = i
					break
				}
			}
		}
		// By identical expression text.
		if ord < 0 {
			for i, p := range proj[:hiddenStart] {
				if p.expr != nil && p.expr.String() == o.Expr.String() {
					ord = i
					break
				}
			}
		}
		if ord < 0 {
			s, err := c.compileExpr(o.Expr, curScope, env)
			if err != nil {
				return nil, nil, nil, err
			}
			ord = len(proj)
			proj = append(proj, projItem{scalar: s, name: fmt.Sprintf("#sort%d", ord)})
		}
		sortKeys = append(sortKeys, sortKey{ordinal: ord, desc: o.Desc})
	}

	scalars := make([]exec.Scalar, len(proj))
	for i, p := range proj {
		scalars[i] = p.scalar
	}
	inner := builder
	n = node("Project"+c.rwSuffix(c.projMarks[q]), n)
	builder = annotate(func(bc *buildCtx) exec.Operator {
		return &exec.ProjectOp{Child: inner(bc), Exprs: scalars}
	}, n)

	if q.Distinct {
		if len(proj) > hiddenStart {
			return nil, nil, nil, errf("DISTINCT with ORDER BY on non-projected expressions is not supported")
		}
		d := builder
		n = node("Distinct", n)
		builder = annotate(func(bc *buildCtx) exec.Operator { return &exec.DistinctOp{Child: d(bc)} }, n)
	}

	if len(sortKeys) > 0 {
		keys := make([]exec.Scalar, len(sortKeys))
		desc := make([]bool, len(sortKeys))
		for i, k := range sortKeys {
			keys[i] = exec.ColScalar(k.ordinal)
			desc[i] = k.desc
		}
		s := builder
		n = node("Sort", n)
		builder = annotate(func(bc *buildCtx) exec.Operator {
			return &exec.SortOp{Child: s(bc), Keys: keys, Desc: desc}
		}, n)
	}
	if len(proj) > hiddenStart {
		// Strip hidden sort keys.
		strip := make([]exec.Scalar, hiddenStart)
		for i := range strip {
			strip[i] = exec.ColScalar(i)
		}
		s := builder
		builder = func(bc *buildCtx) exec.Operator {
			return &exec.ProjectOp{Child: s(bc), Exprs: strip}
		}
	}
	if top != nil {
		nScalar, err := c.compileExpr(top, &scope{parent: parent}, env)
		if err != nil {
			return nil, nil, nil, err
		}
		tb := builder
		n = node("Top", n)
		builder = annotate(func(bc *buildCtx) exec.Operator {
			return &exec.TopOp{Child: tb(bc), N: nScalar}
		}, n)
	}
	return builder, outScope, n, nil
}

// hoistCommonSubqueries rewrites the projection so scalar subqueries that
// occur more than once (textually) are computed once per row in an
// intermediate projection and referenced by column thereafter.
func (c *compiler) hoistCommonSubqueries(builder opBuilder, curScope *scope, items []ast.SelectItem, env *cteEnv, n *Node) (opBuilder, *scope, []ast.SelectItem, *Node, error) {
	// Count top-level scalar subqueries (not descending into subquery
	// bodies: nested subqueries belong to their parents' scopes).
	counts := map[string]int{}
	firstOf := map[string]*ast.Subquery{}
	for _, it := range items {
		if !it.Star {
			topSubqueries(it.Expr, func(sq *ast.Subquery) {
				key := subqueryKey(sq)
				if counts[key]++; firstOf[key] == nil {
					firstOf[key] = sq
				}
			})
		}
	}
	var dups []string
	for key, cnt := range counts {
		if cnt > 1 {
			dups = append(dups, key)
		}
	}
	if len(dups) == 0 {
		return builder, curScope, items, n, nil
	}
	sort.Strings(dups)
	// Pre-projection: identity columns plus one column per hoisted
	// subquery.
	exprs := make([]exec.Scalar, 0, curScope.width()+len(dups))
	for i := 0; i < curScope.width(); i++ {
		exprs = append(exprs, exec.ColScalar(i))
	}
	newScope := &scope{parent: curScope.parent, cols: append([]colBinding(nil), curScope.cols...)}
	newItems := append([]ast.SelectItem(nil), items...)
	for i, key := range dups {
		s, err := c.compileExpr(firstOf[key], curScope, env)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		exprs = append(exprs, s)
		colName := fmt.Sprintf("#sq%d", i)
		newScope.add("#sq", colName, sqltypes.Unknown)
		repl := ast.QCol("#sq", colName)
		for j := range newItems {
			if newItems[j].Star {
				continue
			}
			var same []*ast.Subquery
			topSubqueries(newItems[j].Expr, func(sq *ast.Subquery) {
				if subqueryKey(sq) == key {
					same = append(same, sq)
				}
			})
			for _, sq := range same {
				newItems[j].Expr = replaceExpr(newItems[j].Expr, sq, ast.CloneExpr(repl))
			}
		}
	}
	inner := builder
	cn := node(fmt.Sprintf("CommonSubquery(x%d)", len(dups)), n)
	builder = annotate(func(bc *buildCtx) exec.Operator {
		return &exec.ProjectOp{Child: inner(bc), Exprs: exprs}
	}, cn)
	return builder, newScope, newItems, cn, nil
}

// topSubqueries calls fn for each scalar subquery of e that is not inside
// another subquery, in visit order.
func topSubqueries(e ast.Expr, fn func(*ast.Subquery)) {
	var visit func(x ast.Expr) bool
	visit = func(x ast.Expr) bool {
		switch t := x.(type) {
		case *ast.Subquery:
			if !t.Exists {
				fn(t)
			}
			return false
		case *ast.InExpr:
			if t.Query != nil {
				ast.WalkExpr(t.E, visit)
				for _, it := range t.List {
					ast.WalkExpr(it, visit)
				}
				return false
			}
		}
		return true
	}
	ast.WalkExpr(e, visit)
}

// subqueryKey identifies a subquery by its text and, since `?` prints
// without its position, the positions of its parameters: two subqueries
// with equal keys compute the same value for the same row.
func subqueryKey(sq *ast.Subquery) string {
	key := sq.String()
	ast.WalkExpr(sq, func(x ast.Expr) bool {
		if p, ok := x.(*ast.ParamRef); ok {
			key += fmt.Sprintf("#%d", p.Index)
		}
		return true
	})
	return key
}

// applyOrderTop applies ORDER BY and TOP over an already-projected stream
// (the UNION ALL case); sort keys must resolve against the output columns.
func (c *compiler) applyOrderTop(builder opBuilder, n *Node, outSc *scope, orderBy []ast.OrderItem, top ast.Expr, env *cteEnv) (opBuilder, *Node, error) {
	if len(orderBy) > 0 {
		keys := make([]exec.Scalar, len(orderBy))
		desc := make([]bool, len(orderBy))
		for i, o := range orderBy {
			s, err := c.compileExpr(o.Expr, outSc, env)
			if err != nil {
				return nil, nil, err
			}
			keys[i] = s
			desc[i] = o.Desc
		}
		inner := builder
		n = node("Sort", n)
		builder = annotate(func(bc *buildCtx) exec.Operator {
			return &exec.SortOp{Child: inner(bc), Keys: keys, Desc: desc}
		}, n)
	}
	if top != nil {
		nScalar, err := c.compileExpr(top, &scope{parent: outSc.parent}, env)
		if err != nil {
			return nil, nil, err
		}
		inner := builder
		n = node("Top", n)
		builder = annotate(func(bc *buildCtx) exec.Operator {
			return &exec.TopOp{Child: inner(bc), N: nScalar}
		}, n)
	}
	return builder, n, nil
}

// compileAggregation builds the aggregation operator for a query block and
// returns the post-aggregation scope ("#agg".#N columns: group keys first,
// then one per distinct aggregate call).
func (c *compiler) compileAggregation(q *ast.Select, input opBuilder, inScope *scope, n *Node, env *cteEnv, aggs []aggCall) (opBuilder, *scope, *Node, error) {
	groupKeys := make([]exec.Scalar, len(q.GroupBy))
	for i, g := range q.GroupBy {
		s, err := c.compileExpr(g, inScope, env)
		if err != nil {
			return nil, nil, nil, err
		}
		groupKeys[i] = s
	}
	instances := make([]exec.AggInstance, len(aggs))
	orderSensitive := q.OrderEnforced
	for i, a := range aggs {
		inst := exec.AggInstance{Spec: a.spec, Star: a.call.Star}
		if !a.call.Star {
			for _, arg := range a.call.Args {
				s, err := c.compileExpr(arg, inScope, env)
				if err != nil {
					return nil, nil, nil, err
				}
				inst.Args = append(inst.Args, s)
			}
		}
		if a.spec.OrderSensitive {
			orderSensitive = true
		}
		instances[i] = inst
	}
	outScope := &scope{parent: inScope.parent}
	for i := range q.GroupBy {
		outScope.add("#agg", fmt.Sprintf("#%d", i), sqltypes.Unknown)
	}
	for j := range aggs {
		outScope.add("#agg", fmt.Sprintf("#%d", len(q.GroupBy)+j), sqltypes.Unknown)
	}
	names := make([]string, len(aggs))
	for i, a := range aggs {
		names[i] = a.key
	}
	argList := strings.Join(names, ", ")

	var builder opBuilder
	var label string
	if orderSensitive {
		// Eq. 6 enforcement: streaming aggregate preserving input order.
		builder = func(bc *buildCtx) exec.Operator {
			return &exec.StreamAggOp{Child: input(bc), GroupKeys: groupKeys, Aggs: instances}
		}
		label = fmt.Sprintf("StreamAgg(keys=%d, aggs=[%s])", len(q.GroupBy), argList)
	} else {
		builder = func(bc *buildCtx) exec.Operator {
			return &exec.HashAggOp{Child: input(bc), GroupKeys: groupKeys, Aggs: instances}
		}
		label = fmt.Sprintf("HashAgg(keys=%d, aggs=[%s])", len(q.GroupBy), argList)
	}
	an := node(label, n)
	return annotate(builder, an), outScope, an, nil
}
