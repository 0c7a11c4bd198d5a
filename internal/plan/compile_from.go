package plan

import (
	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"fmt"
)

// splitConjuncts flattens a predicate into its AND-ed conjuncts.
func splitConjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*ast.BinExpr); ok && b.Op == sqltypes.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []ast.Expr{e}
}

// conjunct is one WHERE conjunct on its way to an operator, with the mark of
// the rewrite rule that placed it ("" when none did).
type conjunct struct {
	e    ast.Expr
	mark string
}

// whereConjuncts flattens a block's WHERE filters (outermost first, as
// blockParts returns them) into conjuncts in source order, innermost first.
func whereConjuncts(filters []*lFilter) []conjunct {
	var out []conjunct
	for i := len(filters) - 1; i >= 0; i-- {
		for _, e := range splitConjuncts(filters[i].Pred) {
			out = append(out, conjunct{e: e, mark: filters[i].mark})
		}
	}
	return out
}

// fromUnit is one item of a comma-joined FROM list before physical
// compilation.
type fromUnit struct {
	pos     int
	node    lNode
	binding string      // visible qualifier ("" for explicit joins)
	cols    []string    // output column names (for conjunct classification)
	sides   []*fromUnit // an explicit join's two inputs, which bind its columns
	tab     *storage.Table
	preds   []conjunct // single-unit conjuncts assigned to this unit
}

// newFromUnit describes a FROM unit for conjunct classification.
func (c *compiler) newFromUnit(pos int, n lNode, env *cteEnv) (*fromUnit, error) {
	u := &fromUnit{pos: pos, node: n, binding: bindingName(n)}
	if j, ok := n.(*lJoin); ok {
		for _, side := range []lNode{j.L, j.R} {
			su, err := c.newFromUnit(pos, side, env)
			if err != nil {
				return nil, err
			}
			u.sides = append(u.sides, su)
			u.cols = append(u.cols, su.cols...)
		}
		return u, nil
	}
	cols, err := c.outputNames(n, env)
	if err != nil {
		return nil, err
	}
	u.cols = cols
	if s, ok := n.(*lScan); ok && !lateBound(s.Name) {
		if tab, err := c.cat.ResolveTable(s.Name); err == nil {
			u.tab = tab
		}
	}
	return u, nil
}

// hasCol reports whether the unit exposes the (possibly qualified) column;
// an explicit join exposes the columns of its inputs under their bindings.
func (u *fromUnit) hasCol(ref *ast.ColRef) bool {
	if u.sides != nil {
		return u.sides[0].hasCol(ref) || u.sides[1].hasCol(ref)
	}
	if ref.Table != "" && ref.Table != u.binding {
		return false
	}
	for _, c := range u.cols {
		if c == ref.Name {
			return true
		}
	}
	return false
}

// outputNames derives the output column names of a FROM unit without
// compiling it (used for conjunct classification before join ordering).
func (c *compiler) outputNames(n lNode, env *cteEnv) ([]string, error) {
	switch t := n.(type) {
	case *lScan:
		tab, err := c.cat.ResolveTable(t.Name)
		if err != nil {
			return nil, err
		}
		return tab.Schema.Names(), nil
	case *lCTERef:
		b, err := env.resolve(t.Name)
		if err != nil {
			return nil, err
		}
		out := make([]string, len(b.cols))
		for i, col := range b.cols {
			out[i] = col.Name
		}
		return out, nil
	case *lDerived:
		return c.selectOutputNames(t.Child, env)
	case *lJoin:
		l, err := c.outputNames(t.L, env)
		if err != nil {
			return nil, err
		}
		r, err := c.outputNames(t.R, env)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	}
	return nil, errf("unknown table expression %T", n)
}

// selectOutputNames derives a query's output column names without compiling
// its blocks: those of its (head) block's projection.
func (c *compiler) selectOutputNames(n lNode, env *cteEnv) ([]string, error) {
	if w, ok := n.(*lWith); ok {
		var err error
		if env, err = c.registerCTEs(w.Defs, nil, env); err != nil {
			return nil, err
		}
		n = w.In
	}
	var p *lProject
	for p == nil {
		switch t := n.(type) {
		case *lTop:
			n = t.In
		case *lSort:
			n = t.In
		case *lSetOp:
			n = t.Branches[0]
		case *lApply:
			n = t.In
		case *lProject:
			p = t
		default:
			return nil, errf("malformed logical plan: %T where a projection belongs", n)
		}
	}
	_, _, _, from := blockParts(p)
	var out []string
	for _, it := range p.Items {
		if !it.Star {
			out = append(out, itemOutName(it, len(out)))
			continue
		}
		for _, u := range fromUnits(from) {
			if it.Alias != "" && bindingName(u) != it.Alias {
				continue
			}
			names, err := c.outputNames(u, env)
			if err != nil {
				return nil, err
			}
			out = append(out, names...)
		}
	}
	return out, nil
}

// unitsOf returns the set of unit indexes referenced by e, conservatively:
// an unqualified name matching several units counts for all of them, and
// subqueries are descended into (their correlated references matter here).
func unitsOf(e ast.Expr, units []*fromUnit) map[int]bool {
	out := map[int]bool{}
	ast.WalkExpr(e, func(x ast.Expr) bool {
		cr, ok := x.(*ast.ColRef)
		if !ok {
			return true
		}
		for i, u := range units {
			if u.hasCol(cr) {
				out[i] = true
			}
		}
		return true
	})
	return out
}

// lateBound reports whether a table name resolves at execution time
// (table variables and temp tables).
func lateBound(name string) bool {
	return len(name) > 0 && (name[0] == '@' || name[0] == '#')
}

// eqSides splits an equality conjunct into its two sides; ok is false for
// non-equality predicates.
func eqSides(e ast.Expr) (l, r ast.Expr, ok bool) {
	b, isBin := e.(*ast.BinExpr)
	if !isBin || b.Op != sqltypes.OpEq {
		return nil, nil, false
	}
	return b.L, b.R, true
}

// compileFrom builds the physical access path for a FROM node and its WHERE
// conjuncts: greedy join ordering over the comma-joined units, the access
// path choose_access_path pinned on each base table, index nested-loop or
// hash joins for equi-predicates, and filter placement for everything else.
// All WHERE conjuncts are consumed.
func (c *compiler) compileFrom(from lNode, where []conjunct, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	items := fromUnits(from)
	if len(items) == 0 {
		sc := &scope{parent: parent}
		n := node("OneRow")
		builder := annotate(func(*buildCtx) exec.Operator { return &exec.OneRowOp{} }, n)
		if len(where) == 0 {
			return builder, sc, n, nil
		}
		// With nothing to join, the WHERE runs as one filter.
		var cond ast.Expr
		mark := ""
		for _, cj := range where {
			cond = ast.And(cond, cj.e)
			mark = addMark(mark, cj.mark)
		}
		builder, n, err := c.addFilter(builder, n, filterLabel(mark), cond, sc, env)
		if err != nil {
			return nil, nil, nil, err
		}
		return builder, sc, n, nil
	}

	// Build unit metadata.
	units := make([]*fromUnit, len(items))
	for i, item := range items {
		u, err := c.newFromUnit(i, item, env)
		if err != nil {
			return nil, nil, nil, err
		}
		units[i] = u
	}

	type conj struct {
		conjunct
		units   map[int]bool
		applied bool
	}
	conjs := make([]*conj, len(where))
	for i, cj := range where {
		conjs[i] = &conj{conjunct: cj, units: unitsOf(cj.e, units)}
	}

	// Assign single-unit conjuncts to their units.
	for _, cj := range conjs {
		if len(cj.units) == 1 {
			for i := range cj.units {
				units[i].preds = append(units[i].preds, cj.conjunct)
			}
			cj.applied = true
		}
	}

	// Pick the starting unit: prefer an indexed equality on a fixed key
	// (whether or not choose_access_path seeks it, so row order does not
	// depend on the rules), then any filtered unit but an explicit join
	// (push_filter moves its filters below the join), then the first.
	start, filtered := -1, -1
	for i, u := range units {
		if u.tab != nil && hasIndexedEq(u) {
			start = i
			break
		}
		if filtered < 0 && len(u.preds) > 0 && u.sides == nil {
			filtered = i
		}
	}
	if start < 0 {
		start = max(filtered, 0)
	}

	builder, sc, n, err := c.compileUnit(units[start], parent, env)
	if err != nil {
		return nil, nil, nil, err
	}
	joined := map[int]bool{start: true}
	joinOrder := []int{start}
	width := sc.width()

	remaining := len(units) - 1
	for remaining > 0 {
		// Find a unit connected to the joined set by equality conjuncts.
		type connection struct {
			unit     int
			leftExpr []ast.Expr // sides over joined units (or unit-free)
			rightCol []ast.Expr // sides over the candidate unit
			conjRefs []*conj
		}
		var best *connection
		for ui := range units {
			if joined[ui] {
				continue
			}
			conn := &connection{unit: ui}
			for _, cj := range conjs {
				if cj.applied {
					continue
				}
				// All referenced units must be the candidate or already joined.
				okUnits := true
				refsCandidate := false
				for ref := range cj.units {
					if ref == ui {
						refsCandidate = true
					} else if !joined[ref] {
						okUnits = false
					}
				}
				if !okUnits || !refsCandidate {
					continue
				}
				l, r, ok := eqSides(cj.e)
				if !ok {
					continue
				}
				lu, ru := unitsOf(l, units), unitsOf(r, units)
				onlyCandidate := func(m map[int]bool) bool { return len(m) == 1 && m[ui] }
				noCandidate := func(m map[int]bool) bool { return !m[ui] }
				switch {
				case onlyCandidate(ru) && noCandidate(lu):
					conn.leftExpr = append(conn.leftExpr, l)
					conn.rightCol = append(conn.rightCol, r)
					conn.conjRefs = append(conn.conjRefs, cj)
				case onlyCandidate(lu) && noCandidate(ru):
					conn.leftExpr = append(conn.leftExpr, r)
					conn.rightCol = append(conn.rightCol, l)
					conn.conjRefs = append(conn.conjRefs, cj)
				}
			}
			if len(conn.conjRefs) > 0 {
				best = conn
				break
			}
		}

		if best == nil {
			// No connection: cross join with the first remaining unit
			// (hash join with no keys).
			for ui := range units {
				if !joined[ui] {
					best = &connection{unit: ui}
					break
				}
			}
		}
		u := units[best.unit]

		// Prefer an index nested-loop join when the unit has an index on a
		// plain join column; otherwise hash join.
		idxCol := ""
		idxKey := -1
		if u.tab != nil {
			for i, rc := range best.rightCol {
				if cr, ok := rc.(*ast.ColRef); ok && u.tab.Index(cr.Name) != nil {
					idxCol, idxKey = cr.Name, i
					break
				}
			}
		}

		if idxCol != "" {
			// Index NL join: the right side sees the joined row pushed one
			// outer level down.
			rightBuilder, rightScope, rightNode, err := c.compileUnitSeek(u, parent, env, idxCol, best.leftExpr[idxKey], sc)
			if err != nil {
				return nil, nil, nil, err
			}
			combined := concatScopes(sc, rightScope)
			// Residual join conjuncts evaluated on the combined row.
			var residuals []exec.Scalar
			for i, cj := range best.conjRefs {
				cj.applied = true
				if i == idxKey {
					continue
				}
				s, err := c.compileExpr(cj.e, combined, env)
				if err != nil {
					return nil, nil, nil, err
				}
				residuals = append(residuals, s)
			}
			on := andScalars(residuals)
			left := builder
			lw, rw := width, rightScope.width()
			n = node(fmt.Sprintf("IndexNLJoin(%s.%s)", u.tab.Name, idxCol), n, rightNode)
			builder = annotate(func(bc *buildCtx) exec.Operator {
				return &exec.NLJoinOp{Left: left(bc), Right: rightBuilder(bc), LeftWidth: lw, RightWidth: rw, On: on}
			}, n)
			sc = combined
			width = sc.width()
		} else {
			rightBuilder, rightScope, rightNode, err := c.compileUnit(u, parent, env)
			if err != nil {
				return nil, nil, nil, err
			}
			var leftKeys, rightKeys []exec.Scalar
			for i, cj := range best.conjRefs {
				cj.applied = true
				lk, err := c.compileExpr(best.leftExpr[i], sc, env)
				if err != nil {
					return nil, nil, nil, err
				}
				rk, err := c.compileExpr(best.rightCol[i], rightScope, env)
				if err != nil {
					return nil, nil, nil, err
				}
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
			}
			left := builder
			lw, rw := width, rightScope.width()
			label := "HashJoin"
			if len(best.conjRefs) == 0 {
				label = "CrossJoin"
			}
			n = node(label, n, rightNode)
			builder = annotate(func(bc *buildCtx) exec.Operator {
				return &exec.HashJoinOp{
					Left: left(bc), Right: rightBuilder(bc),
					LeftWidth: lw, RightWidth: rw,
					LeftKeys: leftKeys, RightKeys: rightKeys,
				}
			}, n)
			sc = concatScopes(sc, rightScope)
			width = sc.width()
		}
		joined[best.unit] = true
		joinOrder = append(joinOrder, best.unit)
		remaining--

		// Apply conjuncts that became fully available.
		for _, cj := range conjs {
			if cj.applied {
				continue
			}
			ready := true
			for ref := range cj.units {
				if !joined[ref] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			cj.applied = true
			if builder, n, err = c.addFilter(builder, n, filterLabel(cj.mark), cj.e, sc, env); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// Remaining conjuncts (unit-free: variables, constants, outer refs).
	for _, cj := range conjs {
		if cj.applied {
			continue
		}
		cj.applied = true
		if builder, n, err = c.addFilter(builder, n, filterLabel(cj.mark), cj.e, sc, env); err != nil {
			return nil, nil, nil, err
		}
	}

	// Restore the user-visible FROM column order if greedy ordering
	// permuted the units.
	permuted := false
	for i, p := range joinOrder {
		if unitAtOrder := units[p].pos; unitAtOrder != i {
			permuted = true
			break
		}
	}
	if permuted {
		// Compute, for each unit in original order, where its columns start
		// in the joined row.
		offsets := make([]int, len(units))
		off := 0
		for _, p := range joinOrder {
			offsets[p] = off
			off += len(units[p].cols)
		}
		// Each column keeps the qualifier it was compiled with (an explicit
		// join's columns keep their own tables' bindings).
		reordered := &scope{parent: parent}
		var exprs []exec.Scalar
		for _, u := range units {
			base := offsets[u.pos]
			for ci := range u.cols {
				exprs = append(exprs, exec.ColScalar(base+ci))
				reordered.add(sc.cols[base+ci].Qual, sc.cols[base+ci].Name, sqltypes.Unknown)
			}
		}
		inner := builder
		builder = func(bc *buildCtx) exec.Operator {
			return &exec.ProjectOp{Child: inner(bc), Exprs: exprs}
		}
		sc = reordered
	}
	return builder, sc, n, nil
}

// andScalars combines predicates with short-circuit AND; nil for empty.
func andScalars(preds []exec.Scalar) exec.Scalar {
	if len(preds) == 0 {
		return nil
	}
	if len(preds) == 1 {
		return preds[0]
	}
	return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
		for _, p := range preds {
			v, err := p(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !v.Truthy() {
				return v, nil
			}
		}
		return sqltypes.NewBool(true), nil
	}
}

// hasIndexedEq reports whether one of the base-table unit's predicates is
// an equality on an indexed column with a fixed key.
func hasIndexedEq(u *fromUnit) bool {
	for _, p := range u.preds {
		if col, _, ok := eqColKey(p.e, u.tab, u.binding); ok && u.tab.Index(col) != nil {
			return true
		}
	}
	return false
}

// compileUnit compiles one FROM unit with its assigned single-unit
// predicates. A base table compiles along the access path
// choose_access_path pinned on it, or as a full scan when it pinned none.
func (c *compiler) compileUnit(u *fromUnit, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	var builder opBuilder
	var n *Node
	sc := &scope{parent: parent}
	rest := u.preds

	switch t := u.node.(type) {
	case *lScan:
		tab, err := c.cat.ResolveTable(t.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, col := range tab.Schema.Columns {
			sc.add(u.binding, col.Name, col.Type)
		}
		switch {
		case lateBound(t.Name):
			f, remaining, err := c.fuseScanFilter(rest, sc, env)
			if err != nil {
				return nil, nil, nil, err
			}
			rest = remaining
			name := t.Name
			n = node("LateScan(" + name + ")" + rwSuffix(f.marks) + f.suffix())
			builder = annotate(func(*buildCtx) exec.Operator {
				return &exec.LateScanOp{Name: name, Pred: f.pred}
			}, n)
		case t.hint != nil:
			if builder, n, rest, err = c.compileHinted(u, t.hint, tab, sc, env); err != nil {
				return nil, nil, nil, err
			}
		default:
			if builder, n, rest, err = c.scanUnit(tab, "", "", rest, sc, env); err != nil {
				return nil, nil, nil, err
			}
		}
	case *lCTERef:
		b, err := env.resolve(t.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, col := range b.cols {
			sc.add(u.binding, col.Name, col.Type)
		}
		if b.deltaKey != nil {
			key := b.deltaKey
			n = node("DeltaScan(" + t.Name + ")")
			builder = annotate(func(bc *buildCtx) exec.Operator {
				return &exec.DeltaScanOp{Source: bc.delta(key)}
			}, n)
		} else if builder, n, err = b.instantiate(); err != nil {
			return nil, nil, nil, err
		}
	case *lDerived:
		b, cols, sn, err := c.compileSelect(t.Child, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, cn := range cols {
			sc.add(u.binding, cn, sqltypes.Unknown)
		}
		n = node("Derived("+t.Alias+")"+rwSuffix(t.mark), sn)
		builder = annotate(b, n)
	case *lJoin:
		b, jsc, jn, err := c.compileJoin(t, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		builder = b
		sc = jsc
		n = jn
	default:
		return nil, nil, nil, errf("unknown table expression %T", u.node)
	}

	for _, p := range rest {
		var err error
		if builder, n, err = c.addFilter(builder, n, filterLabel(p.mark), p.e, sc, env); err != nil {
			return nil, nil, nil, err
		}
	}
	return builder, sc, n, nil
}

// compileHinted compiles a base-table unit along the access path the
// choose_access_path pass pinned on it: a forced full scan, an index
// equality seek, or an ordered-index range seek. Predicates whose work the
// chosen path absorbs are dropped from the residual filter list.
func (c *compiler) compileHinted(u *fromUnit, h *accessHint, tab *storage.Table, sc *scope, env *cteEnv) (opBuilder, *Node, []conjunct, error) {
	rule := ruleName(RuleChooseAccessPath)
	unitParent := sc.parent
	switch h.kind {
	case accessEq:
		keyScalar, err := c.compileExpr(h.key, &scope{parent: unitParent}, env)
		if err != nil {
			return nil, nil, nil, err
		}
		mark := addMark(markOf(u.preds, h.eqConj), rule)
		n := node(fmt.Sprintf("IndexSeek(%s.%s)", tab.Name, h.col) + rwSuffix(mark) + costSuffix(h.cost))
		builder := annotate(func(bc *buildCtx) exec.Operator {
			return &exec.IndexSeekOp{Table: tab, Column: h.col, Key: keyScalar}
		}, n)
		return builder, n, withoutPreds(u.preds, h.eqConj), nil
	case accessRange:
		var lo, hi exec.Scalar
		var err error
		if h.lo != nil {
			if lo, err = c.compileExpr(h.lo, &scope{parent: unitParent}, env); err != nil {
				return nil, nil, nil, err
			}
		}
		if h.hi != nil {
			if hi, err = c.compileExpr(h.hi, &scope{parent: unitParent}, env); err != nil {
				return nil, nil, nil, err
			}
		}
		mark := ""
		for _, cj := range []ast.Expr{h.loConj, h.hiConj} {
			if cj != nil {
				mark = addMark(mark, markOf(u.preds, cj))
			}
		}
		mark = addMark(mark, rule)
		f, rest, err := c.fuseScanFilter(withoutPreds(u.preds, h.loConj, h.hiConj), sc, env)
		if err != nil {
			return nil, nil, nil, err
		}
		mark = addMark(mark, f.marks)
		n := node(fmt.Sprintf("RangeSeek(%s.%s)", tab.Name, h.col) + rwSuffix(mark) + costSuffix(h.cost) + f.suffix())
		builder := annotate(func(bc *buildCtx) exec.Operator {
			return &exec.RangeSeekOp{Table: tab, Column: h.col, Lo: lo, Hi: hi, LoStrict: h.loStrict, HiStrict: h.hiStrict, Pred: f.pred}
		}, n)
		return builder, n, rest, nil
	}
	// Forced full scan: cheaper than any seek candidate.
	return c.scanUnit(tab, rule, costSuffix(h.cost), u.preds, sc, env)
}

// scanUnit compiles a full scan of a base table that applies the kernel
// prefix of preds itself; the rest is returned for FilterOps above it.
func (c *compiler) scanUnit(tab *storage.Table, mark, cost string, preds []conjunct, sc *scope, env *cteEnv) (opBuilder, *Node, []conjunct, error) {
	f, rest, err := c.fuseScanFilter(preds, sc, env)
	if err != nil {
		return nil, nil, nil, err
	}
	sn := node("Scan(" + tab.Name + ")" + rwSuffix(addMark(mark, f.marks)) + cost + f.suffix())
	builder := annotate(func(*buildCtx) exec.Operator {
		return &exec.ScanOp{Table: tab, Pred: f.pred}
	}, sn)
	return builder, sn, rest, nil
}

// withoutPreds filters preds down to the members not absorbed by a seek,
// compared by expression pointer.
func withoutPreds(preds []conjunct, drop ...ast.Expr) []conjunct {
	var out []conjunct
	for _, p := range preds {
		used := false
		for _, d := range drop {
			if d != nil && d == p.e {
				used = true
				break
			}
		}
		if !used {
			out = append(out, p)
		}
	}
	return out
}

// markOf is the rule mark of the conjunct e, compared by pointer.
func markOf(preds []conjunct, e ast.Expr) string {
	for _, p := range preds {
		if p.e == e {
			return p.mark
		}
	}
	return ""
}

// compileUnitSeek compiles a unit as the right side of an index nested-loop
// join: an index seek keyed by an expression over the joined row (one outer
// level down), with the unit's own predicates as filters above it.
func (c *compiler) compileUnitSeek(u *fromUnit, parent *scope, env *cteEnv, col string, key ast.Expr, joinedScope *scope) (opBuilder, *scope, *Node, error) {
	// The key references the joined row, which the NL join pushes one level
	// onto the outer stack: compile it against an empty scope whose parent
	// is the joined scope.
	keyScalar, err := c.compileExpr(key, &scope{parent: joinedScope}, env)
	if err != nil {
		return nil, nil, nil, err
	}
	tab := u.tab
	unitParent := &scope{parent: parent}
	sc := &scope{parent: unitParent}
	for _, cdef := range tab.Schema.Columns {
		sc.add(u.binding, cdef.Name, cdef.Type)
	}
	n := node(fmt.Sprintf("IndexSeek(%s.%s)", tab.Name, col))
	builder := annotate(func(bc *buildCtx) exec.Operator {
		return &exec.IndexSeekOp{Table: tab, Column: col, Key: keyScalar}
	}, n)
	for _, p := range u.preds {
		if builder, n, err = c.addFilter(builder, n, filterLabel(p.mark), p.e, sc, env); err != nil {
			return nil, nil, nil, err
		}
	}
	return builder, sc, n, nil
}

// compileJoin compiles an explicit ANSI join tree.
func (c *compiler) compileJoin(j *lJoin, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	leftB, leftSc, leftN, err := c.compileTableSource(j.L, parent, env)
	if err != nil {
		return nil, nil, nil, err
	}

	// Try to split the ON condition into equi-key pairs.
	lUnit, err := c.newFromUnit(0, j.L, env)
	if err != nil {
		return nil, nil, nil, err
	}
	rUnit, err := c.newFromUnit(1, j.R, env)
	if err != nil {
		return nil, nil, nil, err
	}
	pair := []*fromUnit{lUnit, rUnit}

	var eqL, eqR, residual []ast.Expr
	for _, cj := range splitConjuncts(j.On) {
		l, r, ok := eqSides(cj)
		if !ok {
			residual = append(residual, cj)
			continue
		}
		lu, ru := unitsOf(l, pair), unitsOf(r, pair)
		switch {
		case len(lu) == 1 && lu[0] && len(ru) == 1 && ru[1]:
			eqL = append(eqL, l)
			eqR = append(eqR, r)
		case len(lu) == 1 && lu[1] && len(ru) == 1 && ru[0]:
			eqL = append(eqL, r)
			eqR = append(eqR, l)
		default:
			residual = append(residual, cj)
		}
	}
	label := j.Kind.String() + ")" + rwSuffix(j.mark)

	if len(eqL) > 0 {
		// Hash join (no outer-level shift for the right side).
		rightB, rightSc, rightN, err := c.compileTableSource(j.R, parent, env)
		if err != nil {
			return nil, nil, nil, err
		}
		combined := concatScopes(leftSc, rightSc)
		var leftKeys, rightKeys []exec.Scalar
		for i := range eqL {
			lk, err := c.compileExpr(eqL[i], leftSc, env)
			if err != nil {
				return nil, nil, nil, err
			}
			rk, err := c.compileExpr(eqR[i], rightSc, env)
			if err != nil {
				return nil, nil, nil, err
			}
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
		}
		var res []exec.Scalar
		for _, e := range residual {
			s, err := c.compileExpr(e, combined, env)
			if err != nil {
				return nil, nil, nil, err
			}
			res = append(res, s)
		}
		lw, rw := leftSc.width(), rightSc.width()
		outer := j.Kind == ast.JoinLeft
		jn := node("HashJoin("+label, leftN, rightN)
		builder := annotate(func(bc *buildCtx) exec.Operator {
			return &exec.HashJoinOp{
				Left: leftB(bc), Right: rightB(bc),
				LeftWidth: lw, RightWidth: rw,
				LeftKeys: leftKeys, RightKeys: rightKeys,
				Residual: andScalars(res), LeftOuter: outer,
			}
		}, jn)
		return builder, combined, jn, nil
	}

	// Nested-loop join; the right side is re-opened per left row with the
	// left row pushed one outer level down.
	rightB, rightSc, rightN, err := c.compileTableSource(j.R, &scope{parent: parent}, env)
	if err != nil {
		return nil, nil, nil, err
	}
	// Lift the right scope so the combined scope chains to the real parent.
	liftedRight := &scope{parent: parent, cols: rightSc.cols}
	combined := concatScopes(leftSc, liftedRight)
	var on exec.Scalar
	if j.On != nil {
		if on, err = c.compileExpr(j.On, combined, env); err != nil {
			return nil, nil, nil, err
		}
	}
	lw, rw := leftSc.width(), rightSc.width()
	outer := j.Kind == ast.JoinLeft
	jn := node("NLJoin("+label, leftN, rightN)
	builder := annotate(func(bc *buildCtx) exec.Operator {
		return &exec.NLJoinOp{Left: leftB(bc), Right: rightB(bc), LeftWidth: lw, RightWidth: rw, On: on, LeftOuter: outer}
	}, jn)
	return builder, combined, jn, nil
}

// compileTableSource compiles a table expression without predicate
// assignment (explicit-join children).
func (c *compiler) compileTableSource(n lNode, parent *scope, env *cteEnv) (opBuilder, *scope, *Node, error) {
	u, err := c.newFromUnit(0, n, env)
	if err != nil {
		return nil, nil, nil, err
	}
	return c.compileUnit(u, parent, env)
}
