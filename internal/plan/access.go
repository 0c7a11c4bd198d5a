// Cost-based pass: choose_access_path.
//
// It runs once, after the local rewrite rules reach fixpoint (predicate
// placement and constant folding are final by then), and again on each
// nested query body (CTE bodies, expression subqueries) as it compiles;
// it only decides among physically different but semantically equivalent
// shapes. It costs the access paths available to each base scan — full
// scan, index equality seek, index range seek — from table statistics and
// equi-depth histograms, and pins the cheapest on the lScan as an
// accessHint the physical compiler obeys. It is the one access-path
// decision: a scan it pins no hint on compiles as a full scan. Cost
// formulas (N = live rows, NDV = distinct values, sel = histogram range
// selectivity):
//
//	scan   N
//	eq     1 + N/NDV
//	range  log2(N) + 1 + sel*N
//
// Ties prefer the equality seek (today's default), then range seek, then
// scan, so enabling the rule without stats pressure reproduces familiar
// plans.
package plan

import (
	"fmt"
	"math"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/froid"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// defaultSelectivity is the guess for predicates the histogram cannot
// estimate (non-literal bounds, unhistogrammed columns, opaque shapes).
const defaultSelectivity = 0.25

type accessKind int

const (
	accessScan accessKind = iota
	accessEq
	accessRange
)

// accessHint pins the physical access path for one base-table scan.
type accessHint struct {
	kind accessKind
	col  string
	cost float64
	// Equality seek: key expression and the conjunct it consumes.
	key    ast.Expr
	eqConj ast.Expr
	// Range seek: bound expressions (nil = unbounded), strictness, and
	// the conjuncts the bounds consume.
	lo, hi             ast.Expr
	loStrict, hiStrict bool
	loConj, hiConj     ast.Expr
}

// costSuffix renders the EXPLAIN cost annotation.
func costSuffix(c float64) string { return fmt.Sprintf(" cost=%.1f", c) }

// --- choose_access_path ---

// choosePass walks the IR and, for every block, decides an access path per
// base scan from its WHERE conjuncts.
func (rw *rewriter) choosePass(n lNode) lNode {
	n = mapLogicalChildren(n, rw.choosePass)
	if p, ok := n.(*lProject); ok {
		rw.chooseBlock(p)
	}
	return n
}

// chooseBlock decides access paths for the scans of a block's FROM node.
func (rw *rewriter) chooseBlock(p *lProject) {
	where, _, _, from := blockParts(p)
	switch from.(type) {
	case *lScan, *lCross, *lJoin:
	default:
		return
	}
	preds := make([]ast.Expr, len(where))
	for i, f := range where {
		preds[i] = f.Pred
	}
	var units []unitRef
	rw.collectUnits(from, func(lNode) {}, false, false, false, &units)
	perUnit := resolveConjuncts(units, preds)
	for i, u := range units {
		scan, ok := u.node.(*lScan)
		if !ok || len(perUnit[i]) == 0 {
			continue
		}
		rw.decideAccess(scan, u.binding, perUnit[i])
	}
}

// resolveConjuncts assigns each predicate to the single unit it references
// (a reference to an enclosing query's column does not count), mirroring
// compileFrom's conjunct classification. Predicates that span units, embed
// subqueries, or resolve ambiguously are skipped (they stay wherever
// compilation puts them).
func resolveConjuncts(units []unitRef, preds []ast.Expr) map[int][]ast.Expr {
	out := map[int][]ast.Expr{}
	for _, pred := range preds {
		if i, ok := targetUnit(units, pred); ok {
			out[i] = append(out[i], pred)
		}
	}
	return out
}

// decideAccess costs the candidate access paths for one scan and pins the
// cheapest. Fires only when there is an actual choice (at least one seek
// candidate); index-less scans compile exactly as before.
func (rw *rewriter) decideAccess(scan *lScan, binding string, conjs []ast.Expr) {
	if lateBound(scan.Name) {
		return
	}
	tab, err := rw.c.cat.ResolveTable(scan.Name)
	if err != nil {
		return
	}
	if h := chooseAccess(tab, binding, conjs); h != nil {
		scan.hint = h
		rw.fire(RuleChooseAccessPath)
	}
}

// chooseAccess costs the access paths of one scan of tab, bound as binding
// and filtered by conjs, and returns the cheapest, or nil when no seek is a
// candidate. A table without indexes has none, and its statistics are not
// read.
func chooseAccess(tab *storage.Table, binding string, conjs []ast.Expr) *accessHint {
	cols := tab.IndexColumns()
	if len(cols) == 0 {
		return nil
	}
	st := tab.Statistics()
	n := float64(st.Rows)
	if n < 1 {
		n = 1
	}

	// Best equality-seek candidate: lowest 1 + N/NDV over indexed columns.
	var eqBest *accessHint
	for _, cj := range conjs {
		col, key, ok := eqColKey(cj, tab, binding)
		if !ok || tab.Index(col) == nil {
			continue
		}
		ndv := float64(st.DistinctOf(tab.Schema, col))
		if ndv < 1 {
			ndv = 1
		}
		cost := 1 + n/ndv
		if eqBest == nil || cost < eqBest.cost {
			eqBest = &accessHint{kind: accessEq, col: col, cost: cost, key: key, eqConj: cj}
		}
	}

	// Best range-seek candidate over indexed columns.
	var rangeBest *accessHint
	for _, col := range cols {
		h := rangeBounds(conjs, col, tab, binding)
		if h == nil {
			continue
		}
		sel := rangeSelectivity(st, col, h)
		h.cost = math.Log2(n) + 1 + sel*n
		if rangeBest == nil || h.cost < rangeBest.cost {
			rangeBest = h
		}
	}

	if eqBest == nil && rangeBest == nil {
		return nil
	}
	chosen := &accessHint{kind: accessScan, cost: n}
	if rangeBest != nil && rangeBest.cost < chosen.cost {
		chosen = rangeBest
	}
	if eqBest != nil && eqBest.cost <= chosen.cost {
		chosen = eqBest
	}
	return chosen
}

// RowSource is where a DML statement takes its candidate rows from: the
// access path choose_access_path would pin on a SELECT with the same WHERE
// over the same table. The zero value is a full scan. A seek's key and
// bounds are fixed operands, evaluated before it reads a row.
type RowSource struct {
	// Column is the seeked index column; "" for a scan.
	Column string
	// Key is an equality seek's key; nil for a range seek or a scan.
	Key exec.Scalar
	// Lo and Hi bound a range seek; nil is unbounded on that side.
	Lo, Hi             exec.Scalar
	LoStrict, HiStrict bool
}

// CompileRowSource decides the row source of a DML statement whose WHERE
// (nil: every row) filters tab. With RuleChooseAccessPath disabled it is
// always the scan. Whatever it picks, the caller still runs the whole
// compiled WHERE on every row it yields.
func CompileRowSource(cat Catalog, opts Options, where ast.Expr, tab *storage.Table) (RowSource, error) {
	if where == nil || opts.DisableRules.Has(RuleChooseAccessPath) {
		return RowSource{}, nil
	}
	h := chooseAccess(tab, tab.Name, splitConjuncts(where))
	if h == nil || h.kind == accessScan {
		return RowSource{}, nil
	}
	c := newCompiler(cat, opts)
	src := RowSource{Column: h.col, LoStrict: h.loStrict, HiStrict: h.hiStrict}
	for _, op := range []struct {
		e  ast.Expr
		to *exec.Scalar
	}{{h.key, &src.Key}, {h.lo, &src.Lo}, {h.hi, &src.Hi}} {
		if op.e == nil {
			continue
		}
		sc, err := c.compileExpr(op.e, &scope{}, nil)
		if err != nil {
			return RowSource{}, err
		}
		*op.to = sc
	}
	return src, nil
}

// ownCol reports whether cr names a column of the scan of tab bound as
// binding; any other column a conjunct of that scan references belongs to
// an enclosing query.
func ownCol(cr *ast.ColRef, tab *storage.Table, binding string) bool {
	return (cr.Table == "" || cr.Table == binding) && tab.Schema.Ordinal(cr.Name) >= 0
}

// fixedOperand reports whether e is fixed for one execution of the scan of
// tab bound as binding, and so may key a seek or bound a range seek: a
// literal, `?`, `@var` or a column of an enclosing query. A seek evaluates
// its operands at Open, before it reads a row, while a filter evaluates
// them only on the rows it reaches, so an operand that can raise (1/0, a
// cast, a call) stays in the filter and both paths fail or succeed
// together. The one exception is the inliner's coercion of a fixed operand:
// it stands for a UDF parameter, which the call it replaced converted
// before the body read any row.
func fixedOperand(e ast.Expr, tab *storage.Table, binding string) bool {
	switch x := e.(type) {
	case *ast.Literal, *ast.ParamRef, *ast.VarRef:
		return true
	case *ast.ColRef:
		return !ownCol(x, tab, binding)
	case *ast.FuncCall:
		operand, _, ok := froid.CoerceArgs(x)
		return ok && fixedOperand(operand, tab, binding)
	}
	return false
}

// eqColKey matches `col = key` / `key = col` where col is a bare column of
// the scan of tab bound as binding and key is a fixedOperand.
func eqColKey(e ast.Expr, tab *storage.Table, binding string) (string, ast.Expr, bool) {
	b, ok := e.(*ast.BinExpr)
	if !ok || b.Op != sqltypes.OpEq {
		return "", nil, false
	}
	for _, flip := range []struct{ col, key ast.Expr }{{b.L, b.R}, {b.R, b.L}} {
		cr, isCol := flip.col.(*ast.ColRef)
		if !isCol || !ownCol(cr, tab, binding) || !fixedOperand(flip.key, tab, binding) {
			continue
		}
		return cr.Name, flip.key, true
	}
	return "", nil, false
}

// rangeBounds combines comparison conjuncts over col into one [lo, hi]
// range hint (first conjunct per side wins; a non-negated BETWEEN supplies
// both sides at once, so only while neither is set); nil when no bound
// applies. Every bound is a fixedOperand.
func rangeBounds(conjs []ast.Expr, col string, tab *storage.Table, binding string) *accessHint {
	colSide := func(e ast.Expr) bool {
		cr, ok := e.(*ast.ColRef)
		return ok && strings.EqualFold(cr.Name, col) && ownCol(cr, tab, binding)
	}
	fixed := func(e ast.Expr) bool { return fixedOperand(e, tab, binding) }
	h := &accessHint{kind: accessRange, col: col}
	for _, cj := range conjs {
		if bt, ok := cj.(*ast.BetweenExpr); ok {
			if !bt.Negate && h.lo == nil && h.hi == nil && colSide(bt.E) && fixed(bt.Lo) && fixed(bt.Hi) {
				h.lo, h.hi, h.loConj, h.hiConj = bt.Lo, bt.Hi, cj, cj
			}
			continue
		}
		b, ok := cj.(*ast.BinExpr)
		if !ok {
			continue
		}
		var cmp sqltypes.BinaryOp
		var bound ast.Expr
		switch {
		case colSide(b.L) && fixed(b.R):
			cmp, bound = b.Op, b.R
		case colSide(b.R) && fixed(b.L):
			// Flip: key OP col ≡ col OP' key.
			switch b.Op {
			case sqltypes.OpLt:
				cmp = sqltypes.OpGt
			case sqltypes.OpLe:
				cmp = sqltypes.OpGe
			case sqltypes.OpGt:
				cmp = sqltypes.OpLt
			case sqltypes.OpGe:
				cmp = sqltypes.OpLe
			default:
				continue
			}
			bound = b.L
		default:
			continue
		}
		switch cmp {
		case sqltypes.OpLt:
			if h.hi == nil {
				h.hi, h.hiStrict, h.hiConj = bound, true, cj
			}
		case sqltypes.OpLe:
			if h.hi == nil {
				h.hi, h.hiStrict, h.hiConj = bound, false, cj
			}
		case sqltypes.OpGt:
			if h.lo == nil {
				h.lo, h.loStrict, h.loConj = bound, true, cj
			}
		case sqltypes.OpGe:
			if h.lo == nil {
				h.lo, h.loStrict, h.loConj = bound, false, cj
			}
		}
	}
	if h.lo == nil && h.hi == nil {
		return nil
	}
	return h
}

// rangeSelectivity estimates the selected fraction from the column's
// histogram when the bounds are literals (0 when one is NULL: no row
// compares true with NULL); defaultSelectivity otherwise.
func rangeSelectivity(st storage.TableStatistics, col string, h *accessHint) float64 {
	hist, ok := st.Histograms[col]
	if !ok {
		hist, ok = st.Histograms[strings.ToLower(col)]
	}
	if !ok {
		return defaultSelectivity
	}
	var vals [2]sqltypes.Value // lo, hi; NULL = unbounded
	for i, bound := range []ast.Expr{h.lo, h.hi} {
		if bound == nil {
			continue
		}
		lit, isLit := bound.(*ast.Literal)
		if !isLit {
			return defaultSelectivity
		}
		if lit.Val.IsNull() {
			return 0
		}
		vals[i] = lit.Val
	}
	return hist.SelectivityRange(vals[0], vals[1], h.loStrict, h.hiStrict)
}
