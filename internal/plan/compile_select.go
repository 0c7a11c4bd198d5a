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

// Compile compiles a SELECT query into a reusable Plan: the logical IR
// (logical.go) normalized by the rewrite pass (rewrite.go), then physical
// compilation of that IR.
func Compile(cat Catalog, opts Options, q *ast.Select) (*Plan, error) {
	sc := &stampingCatalog{inner: cat, seen: map[*storage.Table]uint64{}}
	c := newCompiler(sc, opts)
	if !c.rules.Has(RuleDecorrelate) {
		c.rules &^= RulePushFilterDecor
	}
	p, fired, err := c.compileRewritten(q)
	if err != nil && fired {
		// A rewritten query must never fail where the original compiles:
		// compile it again with no rule, so a rule bug degrades to a missed
		// optimization.
		p, _, err = (&compiler{cat: sc, opts: opts}).compileRewritten(q)
	}
	if err != nil {
		return nil, err
	}
	p.Stamps = sc.stamps()
	return p, nil
}

// compileRewritten builds q into the IR, runs the compile's rules over it
// and compiles the result. fired reports whether any rule changed the IR.
func (c *compiler) compileRewritten(q *ast.Select) (p *Plan, fired bool, err error) {
	if c.rules != 0 {
		q = ast.CloneSelect(q) // the rules rewrite the IR's expressions in place
	}
	root, err := c.buildLogical(q, nil)
	if err != nil {
		return nil, false, err
	}
	rw := &rewriter{c: c, rules: c.rules, fired: map[RuleSet]int{}}
	root = rw.run(root)
	builder, cols, n, err := c.compileSelect(root, nil, nil)
	if err != nil {
		return nil, rw.total > 0, err
	}
	return &Plan{Columns: cols, Explain: n, build: builder, Rewrites: rw.firedList(), Declined: rw.declined}, rw.total > 0, nil
}

// compileQuery compiles a nested query body (a CTE body or an expression
// subquery) against an enclosing scope. Only the cost pass runs on it, when
// the compile's rules include RuleChooseAccessPath; its firings are not
// counted into the root's rewrites.
func (c *compiler) compileQuery(q *ast.Select, parent *scope, env *cteEnv) (opBuilder, []string, *Node, error) {
	n, err := c.buildLogical(q, env.names())
	if err != nil {
		return nil, nil, nil, err
	}
	if c.rules.Has(RuleChooseAccessPath) {
		rw := &rewriter{c: c, rules: RuleChooseAccessPath, fired: map[RuleSet]int{}}
		n = rw.choosePass(n)
	}
	return c.compileSelect(n, parent, env)
}

// compileSelect compiles the IR of a query (with CTEs and UNION ALL)
// against an enclosing scope. It returns the operator builder, output
// column names, and the explain node.
func (c *compiler) compileSelect(n lNode, parent *scope, env *cteEnv) (opBuilder, []string, *Node, error) {
	if w, ok := n.(*lWith); ok {
		var err error
		if env, err = c.registerCTEs(w.Defs, parent, env); err != nil {
			return nil, nil, nil, err
		}
		n = w.In
	}
	var top ast.Expr
	if t, ok := n.(*lTop); ok {
		top, n = t.N, t.In
	}
	var orderBy []ast.OrderItem
	if s, ok := n.(*lSort); ok {
		orderBy, n = s.Keys, s.In
	}
	set, ok := n.(*lSetOp)
	if !ok {
		builder, outSc, n, err := c.compileCore(n, parent, env, orderBy, top)
		if err != nil {
			return nil, nil, nil, err
		}
		return builder, outSc.names(), n, nil
	}
	// UNION ALL: compile each branch, concatenate, then order/top.
	var builders []opBuilder
	var nodes []*Node
	var cols []string
	for i, branch := range set.Branches {
		b, bcols, n, err := c.compileSelect(branch, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		if i == 0 {
			cols = bcols
		} else if len(bcols) != len(cols) {
			return nil, nil, nil, errf("UNION ALL branches have different column counts (%d vs %d)", len(cols), len(bcols))
		}
		builders = append(builders, b)
		nodes = append(nodes, n)
	}
	outSc := &scope{parent: parent}
	for _, name := range cols {
		outSc.add("", name, sqltypes.Unknown)
	}
	un := node("UnionAll", nodes...)
	builder := annotate(func(bc *buildCtx) exec.Operator {
		children := make([]exec.Operator, len(builders))
		for i, b := range builders {
			children[i] = b(bc)
		}
		return &exec.ConcatOp{Children: children}
	}, un)
	builder, un, err := c.applyOrderTop(builder, un, outSc, orderBy, top, env)
	if err != nil {
		return nil, nil, nil, err
	}
	return builder, cols, un, nil
}

// registerCTEs binds a WITH clause into a new environment.
func (c *compiler) registerCTEs(defs []ast.CTE, parent *scope, env *cteEnv) (*cteEnv, error) {
	for _, cte := range defs {
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
		builder, cols, n, err := c.compileQuery(cte.Query, parent, env)
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
		b, cols, n, err := c.compileQuery(s, parent, env)
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
		b, _, n, err := c.compileQuery(r, parent, recEnv)
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

// distinctAggs keys a block's aggregate calls by their current text, which a
// rule may have changed since the block was built (fold_const folds their
// arguments in place), and drops the calls that have become duplicates.
func distinctAggs(calls []aggCall) []aggCall {
	out := make([]aggCall, 0, len(calls))
	seen := make(map[string]bool, len(calls))
	for _, a := range calls {
		a.key = a.call.String()
		if !seen[a.key] {
			seen[a.key] = true
			out = append(out, a)
		}
	}
	return out
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

// compileCore compiles one block spine (no UNION handling) including its
// projection, aggregation, DISTINCT, and — when orderBy/top are passed —
// ordering and limiting.
func (c *compiler) compileCore(block lNode, parent *scope, env *cteEnv, orderBy []ast.OrderItem, top ast.Expr) (opBuilder, *scope, *Node, error) {
	if a, ok := block.(*lApply); ok {
		block = a.In
	}
	project, ok := block.(*lProject)
	if !ok {
		return nil, nil, nil, errf("malformed logical plan: %T where a projection belongs", block)
	}
	where, having, agg, from := blockParts(project)
	builder, inScope, n, err := c.compileFrom(from, whereConjuncts(where), parent, env)
	if err != nil {
		return nil, nil, nil, err
	}

	items := project.Items
	curScope := inScope
	if agg != nil {
		aggs := distinctAggs(agg.Aggs)
		builder, curScope, n, err = c.compileAggregation(agg.GroupBy, aggs, project.OrderEnforced, builder, inScope, n, env)
		if err != nil {
			return nil, nil, nil, err
		}
		// Rewrite items / having / order-by to reference post-agg columns.
		keyIndex := map[string]int{}
		for i, g := range agg.GroupBy {
			keyIndex[g.String()] = i
		}
		aggIndex := map[string]int{}
		for j, a := range aggs {
			aggIndex[a.key] = j
		}
		nKeys := len(agg.GroupBy)
		items = make([]ast.SelectItem, len(project.Items))
		for i, it := range project.Items {
			if it.Star {
				return nil, nil, nil, errf("SELECT * is not allowed with aggregation")
			}
			items[i] = ast.SelectItem{Expr: substPostAgg(it.Expr, keyIndex, aggIndex, nKeys)}
		}
		if len(orderBy) > 0 {
			rewritten := make([]ast.OrderItem, len(orderBy))
			for i, o := range orderBy {
				rewritten[i] = ast.OrderItem{Expr: substPostAgg(o.Expr, keyIndex, aggIndex, nKeys), Desc: o.Desc}
			}
			orderBy = rewritten
		}
		// HAVING runs as one filter over the conjunction, innermost first.
		var cond ast.Expr
		for i := len(having) - 1; i >= 0; i-- {
			cond = ast.And(cond, having[i].Pred)
		}
		if cond != nil {
			if builder, n, err = c.addFilter(builder, n, "Filter(HAVING)", substPostAgg(cond, keyIndex, aggIndex, nKeys), curScope, env); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// Common-subquery elimination: when the projection evaluates textually
	// identical scalar subqueries several times per row (a pattern the
	// Froid inliner produces for Aggify's guarded rewrites), hoist each
	// distinct subquery into a shared pre-projection so it runs once per
	// row.
	if agg == nil {
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
	for i, it := range items {
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
		// Named after the item as written, before aggregate substitution
		// and subquery hoisting replaced its expression.
		proj = append(proj, projItem{scalar: s, name: itemOutName(project.Items[i], len(proj)), expr: it.Expr})
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
	n = node("Project"+rwSuffix(project.mark), n)
	builder = annotate(func(bc *buildCtx) exec.Operator {
		return &exec.ProjectOp{Child: inner(bc), Exprs: scalars}
	}, n)

	if project.Distinct {
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
				newItems[j].Expr = ast.MapExpr(newItems[j].Expr, func(x ast.Expr) ast.Expr {
					if x == sq {
						return ast.CloneExpr(repl)
					}
					return x
				})
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
func (c *compiler) compileAggregation(groupBy []ast.Expr, aggs []aggCall, orderEnforced bool, input opBuilder, inScope *scope, n *Node, env *cteEnv) (opBuilder, *scope, *Node, error) {
	groupKeys := make([]exec.Scalar, len(groupBy))
	for i, g := range groupBy {
		s, err := c.compileExpr(g, inScope, env)
		if err != nil {
			return nil, nil, nil, err
		}
		groupKeys[i] = s
	}
	instances := make([]exec.AggInstance, len(aggs))
	orderSensitive := orderEnforced
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
	for i := range groupBy {
		outScope.add("#agg", fmt.Sprintf("#%d", i), sqltypes.Unknown)
	}
	for j := range aggs {
		outScope.add("#agg", fmt.Sprintf("#%d", len(groupBy)+j), sqltypes.Unknown)
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
		label = fmt.Sprintf("StreamAgg(keys=%d, aggs=[%s])", len(groupBy), argList)
	} else {
		builder = func(bc *buildCtx) exec.Operator {
			return &exec.HashAggOp{Child: input(bc), GroupKeys: groupKeys, Aggs: instances}
		}
		label = fmt.Sprintf("HashAgg(keys=%d, aggs=[%s])", len(groupBy), argList)
	}
	an := node(label, n)
	return annotate(builder, an), outScope, an, nil
}
