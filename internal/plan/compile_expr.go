package plan

import (
	"math"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/froid"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// compiler holds the immutable state of one compilation. What the rewrite
// pass decided travels on the logical IR it compiles (logical.go), not here.
type compiler struct {
	cat  Catalog
	opts Options
	// rules are the rewrite rules this compile runs; nested query bodies
	// get the cost pass when they include RuleChooseAccessPath.
	rules RuleSet
	// slots, when non-nil, resolves variable references to Ctx.VarSlots
	// indexes at compile time (compiled procedural blocks).
	slots map[string]int
}

// newCompiler starts a compile that runs every rule opts leaves enabled.
func newCompiler(cat Catalog, opts Options) *compiler {
	return &compiler{cat: cat, opts: opts, rules: RuleAll &^ opts.DisableRules}
}

// stampingCatalog wraps a Catalog and records the stats version of every
// base table a compile resolves — the staleness stamps the engine plan
// cache checks on each lookup. Late-bound tables (@/# temp tables) are not
// stamped; their contents are session-local and resolved at execution.
type stampingCatalog struct {
	inner Catalog
	seen  map[*storage.Table]uint64
}

func (s *stampingCatalog) ResolveTable(name string) (*storage.Table, error) {
	t, err := s.inner.ResolveTable(name)
	if err == nil && t != nil && !lateBound(name) {
		if _, ok := s.seen[t]; !ok {
			s.seen[t] = t.StatsVersion()
		}
	}
	return t, err
}

func (s *stampingCatalog) AggSpec(name string) (*exec.AggSpec, bool) { return s.inner.AggSpec(name) }
func (s *stampingCatalog) ScalarFunc(name string) (*ast.CreateFunction, bool) {
	return s.inner.ScalarFunc(name)
}

func (s *stampingCatalog) stamps() []TableStamp {
	if len(s.seen) == 0 {
		return nil
	}
	out := make([]TableStamp, 0, len(s.seen))
	for t, v := range s.seen {
		out = append(out, TableStamp{Table: t, StatsVersion: v})
	}
	return out
}

// cteEnv is a lexically-scoped chain of CTE bindings.
type cteEnv struct {
	parent  *cteEnv
	binding *cteBinding
}

// resolve finds the innermost binding of a CTE name.
func (e *cteEnv) resolve(name string) (*cteBinding, error) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.binding.name == name {
			return cur.binding, nil
		}
	}
	return nil, errf("CTE %s is not in scope", name)
}

// names lists the CTE names in scope.
func (e *cteEnv) names() []string {
	var out []string
	for cur := e; cur != nil; cur = cur.parent {
		out = append(out, cur.binding.name)
	}
	return out
}

// cteBinding binds a CTE name to a compiled instantiation strategy.
type cteBinding struct {
	name string
	cols []colBinding
	// instantiate creates a fresh subtree computing the CTE.
	instantiate func() (opBuilder, *Node, error)
	// deltaKey, when non-nil, marks the binding as the in-progress recursive
	// CTE: references compile to DeltaScanOp over this key.
	deltaKey any
}

// compileExpr compiles an expression against a row scope.
func (c *compiler) compileExpr(e ast.Expr, sc *scope, env *cteEnv) (exec.Scalar, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return litScalar(x.Val), nil
	case *ast.ColRef:
		res, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		if res.levelsUp == 0 {
			return exec.ColScalar(res.ordinal), nil
		}
		return exec.OuterColScalar(res.levelsUp, res.ordinal), nil
	case *ast.VarRef:
		name := x.Name
		if c.slots != nil {
			idx, ok := c.slots[name]
			if !ok {
				return nil, errf("slot compilation: unknown variable %s", name)
			}
			return func(ctx *exec.Ctx, _ exec.Row) (sqltypes.Value, error) {
				if idx >= len(ctx.VarSlots) {
					return sqltypes.Null, errf("variable slot %d out of range", idx)
				}
				return ctx.VarSlots[idx], nil
			}, nil
		}
		return func(ctx *exec.Ctx, _ exec.Row) (sqltypes.Value, error) {
			if ctx.Vars == nil {
				return sqltypes.Null, errf("variable %s referenced outside a procedural context", name)
			}
			v, ok := ctx.Vars(name)
			if !ok {
				return sqltypes.Null, errf("undeclared variable %s", name)
			}
			return v, nil
		}, nil
	case *ast.ParamRef:
		idx := x.Index
		return func(ctx *exec.Ctx, _ exec.Row) (sqltypes.Value, error) {
			if idx < 0 || idx >= len(ctx.Params) {
				return sqltypes.Null, errf("parameter %d not bound", idx+1)
			}
			return ctx.Params[idx], nil
		}, nil
	case *ast.BinExpr:
		l, err := c.compileExpr(x.L, sc, env)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(x.R, sc, env)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			// Short-circuit AND/OR where the left side decides.
			switch op {
			case sqltypes.OpAnd:
				if lv.Kind() == sqltypes.KindBool && !lv.Bool() {
					return sqltypes.NewBool(false), nil
				}
			case sqltypes.OpOr:
				if lv.Truthy() {
					return sqltypes.NewBool(true), nil
				}
			}
			rv, err := r(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Apply(op, lv, rv)
		}, nil
	case *ast.UnaryExpr:
		inner, err := c.compileExpr(x.E, sc, env)
		if err != nil {
			return nil, err
		}
		neg := x.Op == '-'
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if neg {
				return sqltypes.Negate(v)
			}
			return sqltypes.Not(v), nil
		}, nil
	case *ast.IsNullExpr:
		inner, err := c.compileExpr(x.E, sc, env)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(v.IsNull() != negate), nil
		}, nil
	case *ast.CaseExpr:
		type arm struct{ cond, then exec.Scalar }
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			cond, err := c.compileExpr(w.Cond, sc, env)
			if err != nil {
				return nil, err
			}
			then, err := c.compileExpr(w.Then, sc, env)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{cond, then}
		}
		var elseS exec.Scalar
		if x.Else != nil {
			var err error
			if elseS, err = c.compileExpr(x.Else, sc, env); err != nil {
				return nil, err
			}
		}
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			for _, a := range arms {
				v, err := a.cond(ctx, row)
				if err != nil {
					return sqltypes.Null, err
				}
				if v.Truthy() {
					return a.then(ctx, row)
				}
			}
			if elseS != nil {
				return elseS(ctx, row)
			}
			return sqltypes.Null, nil
		}, nil
	case *ast.BetweenExpr:
		ev, err := c.compileExpr(x.E, sc, env)
		if err != nil {
			return nil, err
		}
		lo, err := c.compileExpr(x.Lo, sc, env)
		if err != nil {
			return nil, err
		}
		hi, err := c.compileExpr(x.Hi, sc, env)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			v, err := ev(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			lv, err := lo(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			hv, err := hi(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Between(v, lv, hv, negate), nil
		}, nil
	case *ast.InExpr:
		return c.compileIn(x, sc, env)
	case *ast.FuncCall:
		return c.compileFunc(x, sc, env)
	case *ast.Subquery:
		return c.compileSubquery(x, sc, env)
	}
	return nil, errf("cannot compile expression %T", e)
}

// compileIn compiles both list and subquery IN forms with SQL's three-valued
// semantics: TRUE on any match; otherwise NULL if any comparison was
// unknown; otherwise FALSE.
func (c *compiler) compileIn(x *ast.InExpr, sc *scope, env *cteEnv) (exec.Scalar, error) {
	ev, err := c.compileExpr(x.E, sc, env)
	if err != nil {
		return nil, err
	}
	negate := x.Negate
	finish := func(matched, sawNull bool) sqltypes.Value {
		switch {
		case matched:
			return sqltypes.NewBool(!negate)
		case sawNull:
			return sqltypes.Null
		default:
			return sqltypes.NewBool(negate)
		}
	}
	if x.Query == nil {
		items := make([]exec.Scalar, len(x.List))
		for i, it := range x.List {
			if items[i], err = c.compileExpr(it, sc, env); err != nil {
				return nil, err
			}
		}
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			v, err := ev(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			sawNull := false
			for _, it := range items {
				iv, err := it(ctx, row)
				if err != nil {
					return sqltypes.Null, err
				}
				cv, ok := sqltypes.Compare(v, iv)
				if !ok {
					sawNull = true
					continue
				}
				if cv == 0 {
					return finish(true, false), nil
				}
			}
			return finish(false, sawNull), nil
		}, nil
	}
	sq, _, err := c.compileSubqueryTree(x.Query, sc, env)
	if err != nil {
		return nil, err
	}
	return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
		v, err := ev(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		ctx.OuterRows = append(ctx.OuterRows, row)
		op, err := sq.open(ctx)
		// The rows are drained to the end, as a materialized set would be:
		// an error in a later row wins over an earlier match. A NULL probe
		// reads one row only: NULL IN (non-empty set) is unknown, NULL IN
		// (empty set) FALSE.
		matched, sawNull, wide := false, false, false
		for err == nil {
			var r exec.Row
			if r, err = op.Next(ctx); err != nil || r == nil {
				break
			}
			if matched || wide {
				continue
			}
			if len(r) != 1 {
				wide = true
				continue
			}
			if v.IsNull() {
				sawNull = true
				break
			}
			cv, ok := sqltypes.Compare(v, r[0])
			switch {
			case !ok:
				sawNull = true
			case cv == 0:
				matched = true
			}
		}
		sq.done(ctx, op, err)
		ctx.OuterRows = ctx.OuterRows[:len(ctx.OuterRows)-1]
		switch {
		case err != nil:
			return sqltypes.Null, err
		case wide:
			return sqltypes.Null, errf("IN subquery must return one column")
		}
		return finish(matched, sawNull), nil
	}, nil
}

// subquery is a compiled subquery: the builder of its operator tree and the
// key the trees are cached under. An evaluation takes the subquery's idle
// tree from its execution context, or builds one when none is idle, drains
// it and puts it back, so one execution builds the tree once and re-opens
// it for every outer row.
type subquery struct {
	build opBuilder
	key   *exec.TreeKey
}

func (c *compiler) compileSubqueryTree(q *ast.Select, sc *scope, env *cteEnv) (*subquery, []string, error) {
	builder, cols, _, err := c.compileQuery(q, sc, env)
	if err != nil {
		return nil, nil, err
	}
	return &subquery{build: builder, key: new(exec.TreeKey)}, cols, nil
}

// open takes or builds a tree and opens it; the caller has pushed the
// current row onto ctx.OuterRows.
func (sq *subquery) open(ctx *exec.Ctx) (exec.Operator, error) {
	op := ctx.TakeTree(sq.key)
	if op == nil {
		op = sq.build(&buildCtx{})
	}
	return op, op.Open(ctx)
}

// done closes op and caches it for the next evaluation under ctx, unless
// its Open or a Next failed (err): a failed tree is dropped.
func (sq *subquery) done(ctx *exec.Ctx, op exec.Operator, err error) {
	op.Close()
	if err == nil {
		ctx.PutTree(sq.key, op)
	}
}

// compileSubquery compiles scalar and EXISTS subqueries; scalar subqueries
// returning multiple columns yield a tuple value (used by the Aggify
// multi-live-variable rewrite).
func (c *compiler) compileSubquery(x *ast.Subquery, sc *scope, env *cteEnv) (exec.Scalar, error) {
	sq, cols, err := c.compileSubqueryTree(x.Query, sc, env)
	if err != nil {
		return nil, err
	}
	if x.Exists {
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			ctx.OuterRows = append(ctx.OuterRows, row)
			op, err := sq.open(ctx)
			found := false
			if err == nil {
				var r exec.Row
				r, err = op.Next(ctx)
				found = r != nil
			}
			sq.done(ctx, op, err)
			ctx.OuterRows = ctx.OuterRows[:len(ctx.OuterRows)-1]
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(found), nil
		}, nil
	}
	ncols := len(cols)
	return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
		ctx.OuterRows = append(ctx.OuterRows, row)
		op, err := sq.open(ctx)
		// Keep the first row and count the rest: more than one is an error.
		var first exec.Row
		n := 0
		for err == nil {
			var r exec.Row
			if r, err = op.Next(ctx); err != nil || r == nil {
				break
			}
			if n == 0 {
				first = r
			}
			n++
		}
		sq.done(ctx, op, err)
		ctx.OuterRows = ctx.OuterRows[:len(ctx.OuterRows)-1]
		switch {
		case err != nil:
			return sqltypes.Null, err
		case n == 0:
			return sqltypes.Null, nil
		case n > 1:
			return sqltypes.Null, errf("scalar subquery returned %d rows", n)
		case ncols == 1:
			return first[0], nil
		default:
			return sqltypes.NewTuple(first), nil
		}
	}, nil
}

// compileFunc dispatches scalar function calls: built-in scalar functions
// first, then user-defined functions through the context hook. Aggregate
// calls reaching this point are a placement error.
func (c *compiler) compileFunc(x *ast.FuncCall, sc *scope, env *cteEnv) (exec.Scalar, error) {
	name := strings.ToLower(x.Name)
	if name == "__agg_empty" {
		// Decorrelation miss-default: the named aggregate's Init+Terminate
		// value (its result over empty input).
		if len(x.Args) != 1 {
			return nil, errf("__agg_empty expects the aggregate name")
		}
		lit, ok := x.Args[0].(*ast.Literal)
		if !ok || lit.Val.Kind() != sqltypes.KindString {
			return nil, errf("__agg_empty expects a literal aggregate name")
		}
		spec, ok := c.cat.AggSpec(lit.Val.Str())
		if !ok {
			return nil, errf("__agg_empty: unknown aggregate %s", lit.Val.Str())
		}
		return func(ctx *exec.Ctx, _ exec.Row) (sqltypes.Value, error) {
			agg := spec.New()
			agg.Reset()
			return agg.Result(ctx)
		}, nil
	}
	if name == froid.CoerceFunc {
		return c.compileCoerce(x, sc, env)
	}
	if _, isAgg := c.cat.AggSpec(name); isAgg || exec.IsBuiltinAgg(name) {
		return nil, errf("aggregate %s is not allowed in this context", name)
	}
	args := make([]exec.Scalar, len(x.Args))
	for i, a := range x.Args {
		s, err := c.compileExpr(a, sc, env)
		if err != nil {
			return nil, err
		}
		args[i] = s
	}
	if fn, ok := builtinScalarFuncs[name]; ok {
		return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
			vals := make([]sqltypes.Value, len(args))
			for i, a := range args {
				v, err := a(ctx, row)
				if err != nil {
					return sqltypes.Null, err
				}
				vals[i] = v
			}
			return fn(vals)
		}, nil
	}
	if _, ok := c.cat.ScalarFunc(name); !ok {
		return nil, errf("unknown function %s", name)
	}
	return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
		if ctx.CallFunc == nil {
			return sqltypes.Null, errf("no function invoker installed for %s", name)
		}
		vals := make([]sqltypes.Value, len(args))
		for i, a := range args {
			v, err := a(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
			vals[i] = v
		}
		return ctx.CallFunc(name, vals)
	}, nil
}

// compileCoerce compiles the inliner's __coerce(e, 'TYPE') pseudo-function:
// e converted to TYPE as the interpreter converts a value it binds to a
// parameter, stores into a variable or returns. A literal operand converts
// once, here.
func (c *compiler) compileCoerce(x *ast.FuncCall, sc *scope, env *cteEnv) (exec.Scalar, error) {
	operand, t, ok := froid.CoerceArgs(x)
	if !ok {
		return nil, errf("%s expects an expression and a literal type name", froid.CoerceFunc)
	}
	if lit, ok := operand.(*ast.Literal); ok {
		v, err := lit.Val.CoerceTo(t)
		if err != nil {
			return func(*exec.Ctx, exec.Row) (sqltypes.Value, error) { return sqltypes.Null, err }, nil
		}
		return litScalar(v), nil
	}
	inner, err := c.compileExpr(operand, sc, env)
	if err != nil {
		return nil, err
	}
	return func(ctx *exec.Ctx, row exec.Row) (sqltypes.Value, error) {
		v, err := inner(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return v.CoerceTo(t)
	}, nil
}

// builtinScalarFuncs are the engine's built-in scalar functions.
var builtinScalarFuncs = map[string]func([]sqltypes.Value) (sqltypes.Value, error){
	"abs":     numeric1(func(f float64) float64 { return math.Abs(f) }),
	"ceiling": numeric1(math.Ceil),
	"floor":   numeric1(math.Floor),
	"sqrt":    numeric1(math.Sqrt),
	"round": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) < 1 || len(args) > 2 {
			return sqltypes.Null, errf("round expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return sqltypes.Null, errf("round of non-numeric")
		}
		scale := 0.0
		if len(args) == 2 {
			d, _ := args[1].AsFloat()
			scale = d
		}
		m := math.Pow(10, scale)
		return sqltypes.NewFloat(math.Round(f*m) / m), nil
	},
	"power": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 2 {
			return sqltypes.Null, errf("power expects 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		a, _ := args[0].AsFloat()
		b, _ := args[1].AsFloat()
		return sqltypes.NewFloat(math.Pow(a, b)), nil
	},
	"sign": numeric1(func(f float64) float64 {
		switch {
		case f > 0:
			return 1
		case f < 0:
			return -1
		}
		return 0
	}),
	"upper": string1(strings.ToUpper),
	"lower": string1(strings.ToLower),
	"ltrim": string1(func(s string) string { return strings.TrimLeft(s, " ") }),
	"rtrim": string1(func(s string) string { return strings.TrimRight(s, " ") }),
	"len": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("len expects 1 argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(len(args[0].Display()))), nil
	},
	"substring": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 3 {
			return sqltypes.Null, errf("substring expects 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return sqltypes.Null, nil
		}
		s := args[0].Display()
		start, _ := args[1].AsInt()
		length, _ := args[2].AsInt()
		if start < 1 {
			start = 1
		}
		lo := int(start - 1)
		if lo > len(s) {
			return sqltypes.NewString(""), nil
		}
		hi := lo + int(length)
		if hi > len(s) || length < 0 {
			hi = len(s)
		}
		return sqltypes.NewString(s[lo:hi]), nil
	},
	"replace": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 3 {
			return sqltypes.Null, errf("replace expects 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(strings.ReplaceAll(args[0].Display(), args[1].Display(), args[2].Display())), nil
	},
	"tuple_get": func(args []sqltypes.Value) (sqltypes.Value, error) {
		// Extracts one attribute of a tuple-valued aggregate result (the
		// paper's "aggVal" extraction, §6). NULL tuples yield NULL.
		if len(args) != 2 {
			return sqltypes.Null, errf("tuple_get expects 2 arguments")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		if args[0].Kind() != sqltypes.KindTuple {
			return sqltypes.Null, errf("tuple_get of non-tuple %s", args[0].Kind())
		}
		i, ok := args[1].AsInt()
		t := args[0].Tuple()
		if !ok || i < 0 || int(i) >= len(t) {
			return sqltypes.Null, errf("tuple_get index %v out of range %d", args[1], len(t))
		}
		return t[i], nil
	},
	"coalesce": func(args []sqltypes.Value) (sqltypes.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	},
	"isnull": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 2 {
			return sqltypes.Null, errf("isnull expects 2 arguments")
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	},
	"nullif": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 2 {
			return sqltypes.Null, errf("nullif expects 2 arguments")
		}
		if sqltypes.Equal(args[0], args[1]) {
			return sqltypes.Null, nil
		}
		return args[0], nil
	},
	"iif": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 3 {
			return sqltypes.Null, errf("iif expects 3 arguments")
		}
		if args[0].Truthy() {
			return args[1], nil
		}
		return args[2], nil
	},
	"year":  datePart(func(y, m, d int) int { return y }),
	"month": datePart(func(y, m, d int) int { return m }),
	"day":   datePart(func(y, m, d int) int { return d }),
	"cast_int": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("cast_int expects 1 argument")
		}
		return args[0].CoerceTo(sqltypes.Int)
	},
	"cast_float": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("cast_float expects 1 argument")
		}
		return args[0].CoerceTo(sqltypes.Float)
	},
	"str": func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("str expects 1 argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(args[0].Display()), nil
	},
}

// IsBuiltinScalarFunc reports whether name is a planner built-in scalar
// function (used by the engine's catalog to reject conflicting UDF names).
func IsBuiltinScalarFunc(name string) bool {
	_, ok := builtinScalarFuncs[strings.ToLower(name)]
	return ok
}

func numeric1(f func(float64) float64) func([]sqltypes.Value) (sqltypes.Value, error) {
	return func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("function expects 1 argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		v, ok := args[0].AsFloat()
		if !ok {
			return sqltypes.Null, errf("numeric function of non-numeric %s", args[0].Kind())
		}
		out := f(v)
		if args[0].Kind() == sqltypes.KindInt && out == math.Trunc(out) {
			return sqltypes.NewInt(int64(out)), nil
		}
		return sqltypes.NewFloat(out), nil
	}
}

func string1(f func(string) string) func([]sqltypes.Value) (sqltypes.Value, error) {
	return func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("function expects 1 argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(f(args[0].Display())), nil
	}
}

func datePart(pick func(y, m, d int) int) func([]sqltypes.Value) (sqltypes.Value, error) {
	return func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, errf("date function expects 1 argument")
		}
		v := args[0]
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		if v.Kind() == sqltypes.KindString {
			parsed, err := sqltypes.ParseDate(v.Str())
			if err != nil {
				return sqltypes.Null, err
			}
			v = parsed
		}
		if v.Kind() != sqltypes.KindDate {
			return sqltypes.Null, errf("date function of non-date %s", v.Kind())
		}
		s := v.DateString() // yyyy-mm-dd
		y := int(s[0]-'0')*1000 + int(s[1]-'0')*100 + int(s[2]-'0')*10 + int(s[3]-'0')
		m := int(s[5]-'0')*10 + int(s[6]-'0')
		d := int(s[8]-'0')*10 + int(s[9]-'0')
		return sqltypes.NewInt(int64(pick(y, m, d))), nil
	}
}
