package plan

import (
	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/froid"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Predicate compilation: a filter expression becomes an exec.Predicate, one
// conjunct per AND-ed term. A term of the shape `column <cmp> invariant`
// (also BETWEEN, IN (invariants), IS [NOT] NULL) compiles to a kernel: only
// its invariant operands are compiled to scalars, and the executor binds
// them once per Open. Any other term compiles, once, to its generic closure.
// Classification is pure AST inspection, so no expression is compiled twice.

// kernelForm is a conjunct recognised as a kernel, before its invariants
// are compiled.
type kernelForm struct {
	shape  exec.Shape
	ord    int
	op     sqltypes.BinaryOp
	negate bool
	args   []ast.Expr
}

// kernelOf classifies one conjunct (an expression with no top-level AND).
// It returns the kernel form, or the reason code EXPLAIN prints for the
// generic path.
func (c *compiler) kernelOf(e ast.Expr, sc *scope) (kernelForm, string) {
	switch x := e.(type) {
	case *ast.BinExpr:
		if !x.Op.IsComparison() {
			switch x.Op {
			case sqltypes.OpOr:
				return kernelForm{}, "or"
			case sqltypes.OpLike:
				return kernelForm{}, "like"
			}
			return kernelForm{}, "expression"
		}
		lord, lcol := localCol(x.L, sc)
		rord, rcol := localCol(x.R, sc)
		switch {
		case lcol && rcol:
			return kernelForm{}, "column_vs_column"
		case lcol:
			if why := c.variantReason(x.R, sc); why != "" {
				return kernelForm{}, why
			}
			return kernelForm{shape: exec.ShapeCompare, ord: lord, op: x.Op, args: []ast.Expr{x.R}}, ""
		case rcol:
			if why := c.variantReason(x.L, sc); why != "" {
				return kernelForm{}, why
			}
			return kernelForm{shape: exec.ShapeCompare, ord: rord, op: mirror(x.Op), args: []ast.Expr{x.L}}, ""
		}
		return kernelForm{}, c.noColumnReason(sc, x.L, x.R)
	case *ast.BetweenExpr:
		ord, ok := localCol(x.E, sc)
		if !ok {
			return kernelForm{}, c.noColumnReason(sc, x.E)
		}
		bounds := []ast.Expr{x.Lo, x.Hi}
		for _, b := range bounds {
			if why := c.variantReason(b, sc); why != "" {
				return kernelForm{}, why
			}
		}
		return kernelForm{shape: exec.ShapeBetween, ord: ord, negate: x.Negate, args: bounds}, ""
	case *ast.InExpr:
		if x.Query != nil {
			return kernelForm{}, "subquery"
		}
		ord, ok := localCol(x.E, sc)
		if !ok {
			return kernelForm{}, c.noColumnReason(sc, x.E)
		}
		for _, it := range x.List {
			if why := c.variantReason(it, sc); why != "" {
				return kernelForm{}, why
			}
		}
		return kernelForm{shape: exec.ShapeIn, ord: ord, negate: x.Negate, args: x.List}, ""
	case *ast.IsNullExpr:
		ord, ok := localCol(x.E, sc)
		if !ok {
			return kernelForm{}, c.noColumnReason(sc, x.E)
		}
		return kernelForm{shape: exec.ShapeIsNull, ord: ord, negate: x.Negate}, ""
	case *ast.UnaryExpr:
		return kernelForm{}, "not"
	case *ast.Subquery:
		return kernelForm{}, "subquery"
	case *ast.FuncCall:
		return kernelForm{}, c.callReason(x)
	}
	return kernelForm{}, "expression"
}

// mirror swaps the sides of a comparison: `inv < col` is `col > inv`.
func mirror(op sqltypes.BinaryOp) sqltypes.BinaryOp {
	switch op {
	case sqltypes.OpLt:
		return sqltypes.OpGt
	case sqltypes.OpLe:
		return sqltypes.OpGe
	case sqltypes.OpGt:
		return sqltypes.OpLt
	case sqltypes.OpGe:
		return sqltypes.OpLe
	}
	return op
}

// localCol reports whether e is a bare reference to a column of the current
// row (not of an enclosing query), and its ordinal.
func localCol(e ast.Expr, sc *scope) (int, bool) {
	cr, ok := e.(*ast.ColRef)
	if !ok {
		return 0, false
	}
	res, err := sc.resolve(cr)
	if err != nil || res.levelsUp != 0 {
		return 0, false
	}
	return res.ordinal, true
}

// variantReason returns "" when e is row-invariant — a literal, `?`, @var,
// a column of an enclosing query, or arithmetic over those — and otherwise
// the reason code of the first thing in it that can change per row or that
// runs user code.
func (c *compiler) variantReason(e ast.Expr, sc *scope) string {
	switch x := e.(type) {
	case *ast.Literal, *ast.ParamRef, *ast.VarRef:
		return ""
	case *ast.ColRef:
		if res, err := sc.resolve(x); err == nil && res.levelsUp > 0 {
			return ""
		}
		return "column_expression"
	case *ast.BinExpr:
		switch x.Op {
		case sqltypes.OpAdd, sqltypes.OpSub, sqltypes.OpMul, sqltypes.OpDiv, sqltypes.OpMod, sqltypes.OpConcat:
			if why := c.variantReason(x.L, sc); why != "" {
				return why
			}
			return c.variantReason(x.R, sc)
		}
	case *ast.UnaryExpr:
		if x.Op == '-' {
			return c.variantReason(x.E, sc)
		}
	case *ast.Subquery:
		return "subquery"
	case *ast.FuncCall:
		if operand, _, ok := froid.CoerceArgs(x); ok {
			return c.variantReason(operand, sc)
		}
		return c.callReason(x)
	}
	if ast.HasSubquery(e) {
		return "subquery"
	}
	return "expression"
}

// noColumnReason explains a comparison that has no bare column on either
// side: the first variant operand's reason, or no_column when every operand
// is invariant (`@x > 5`).
func (c *compiler) noColumnReason(sc *scope, operands ...ast.Expr) string {
	for _, e := range operands {
		if why := c.variantReason(e, sc); why != "" {
			return why
		}
	}
	return "no_column"
}

func (c *compiler) callReason(x *ast.FuncCall) string {
	if _, ok := c.cat.ScalarFunc(x.Name); ok {
		return "udf_call"
	}
	return "func_call"
}

// compileKernel compiles a kernel's invariant operands.
func (c *compiler) compileKernel(k kernelForm, sc *scope, env *cteEnv) (exec.Conjunct, error) {
	out := exec.Conjunct{Shape: k.shape, Ord: k.ord, Op: k.op, Negate: k.negate}
	for _, a := range k.args {
		s, err := c.compileExpr(a, sc, env)
		if err != nil {
			return exec.Conjunct{}, err
		}
		out.Args = append(out.Args, s)
	}
	return out, nil
}

// compilePredicate compiles a filter expression. The tag is what EXPLAIN
// prints for it: [bound], [bound+residual] or [generic: <reason>], the
// reason being that of the first generic conjunct.
func (c *compiler) compilePredicate(e ast.Expr, sc *scope, env *cteEnv) (*exec.Predicate, string, error) {
	terms := splitConjuncts(e)
	conj := make([]exec.Conjunct, len(terms))
	kernels, firstWhy := 0, ""
	for i, t := range terms {
		k, why := c.kernelOf(t, sc)
		var err error
		if why == "" {
			kernels++
			conj[i], err = c.compileKernel(k, sc, env)
		} else {
			conj[i].Generic, err = c.compileExpr(t, sc, env)
			if firstWhy == "" {
				firstWhy = why
			}
		}
		if err != nil {
			return nil, "", err
		}
	}
	tag := " [bound+residual]"
	switch kernels {
	case len(terms):
		tag = " [bound]"
	case 0:
		tag = " [generic: " + firstWhy + "]"
	}
	return exec.NewPredicate(conj), tag, nil
}

// addFilter places a FilterOp evaluating e over builder. label is the
// explain node's name ahead of the path tag.
func (c *compiler) addFilter(builder opBuilder, n *Node, label string, e ast.Expr, sc *scope, env *cteEnv) (opBuilder, *Node, error) {
	pred, tag, err := c.compilePredicate(e, sc, env)
	if err != nil {
		return nil, nil, err
	}
	fn := node(label+tag, n)
	return annotate(func(bc *buildCtx) exec.Operator {
		return &exec.FilterOp{Child: builder(bc), Pred: pred}
	}, fn), fn, nil
}

// scanFilter is the part of a unit's filter chain its scan applies itself.
type scanFilter struct {
	pred  *exec.Predicate // nil when the scan filters nothing
	marks string          // rewrite-rule marks of the absorbed conjuncts
}

// suffix is the scan's explain tag.
func (f scanFilter) suffix() string {
	if f.pred == nil {
		return ""
	}
	return " [filter: bound]"
}

// fuseScanFilter compiles the leading kernel conjuncts of preds into the
// predicate the unit's scan runs inside its cursor callback, and returns the
// conjuncts left for FilterOps above it. Only a kernel-only prefix moves: a
// scan tests up to a refill of rows ahead of its consumer, which is
// unobservable for kernels (no reads charged, and an invariant's error is
// held back behind the rows that precede it) but not for conjuncts that
// call user code or run subqueries, and conjuncts keep their order.
func (c *compiler) fuseScanFilter(preds []conjunct, sc *scope, env *cteEnv) (scanFilter, []conjunct, error) {
	var f scanFilter
	var conj []exec.Conjunct
	for len(preds) > 0 {
		form, why := c.kernelOf(preds[0].e, sc)
		if why != "" {
			break
		}
		k, err := c.compileKernel(form, sc, env)
		if err != nil {
			return scanFilter{}, nil, err
		}
		k.End = true // each conjunct was a filter of its own
		conj = append(conj, k)
		f.marks = addMark(f.marks, preds[0].mark)
		preds = preds[1:]
	}
	if len(conj) > 0 {
		f.pred = exec.NewPredicate(conj)
	}
	return f, preds, nil
}

// CompileRowPredicate compiles a DML WHERE clause against the columns of a
// single table; a nil expression yields a nil predicate (every row).
func CompileRowPredicate(cat Catalog, opts Options, e ast.Expr, tab *storage.Table) (*exec.Predicate, error) {
	if e == nil {
		return nil, nil
	}
	p, _, err := newCompiler(cat, opts).compilePredicate(e, tableScope(tab), nil)
	return p, err
}
