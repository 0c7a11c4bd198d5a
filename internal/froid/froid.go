// Package froid implements a Froid-style scalar-UDF inliner (Ramachandra
// et al., "Froid: Optimizing Imperative Functions in Relational Databases",
// the paper's [38]). After Aggify removes a UDF's cursor loop, the body is
// loop-free imperative code; this package composes such bodies into single
// scalar expressions and substitutes them at call sites inside queries. The
// planner's inline_udf rule calls it for the UDF calls of select lists and
// WHERE/HAVING conjuncts; together with decorrelation that is the paper's
// "Aggify+" configuration (§8.2).
//
// The supported region forms are sequences of DECLARE/SET, IF/ELSE
// (including early RETURNs), and a final RETURN — the same statement forms
// Froid's region-based algorithm composes into SELECT expressions. UDFs
// containing loops, cursors, DML, TRY/CATCH, or EXEC are reported as not
// inlinable and left as interpreted calls.
//
// The composed expression coerces where the interpreter does: each argument
// to its parameter's type, each DECLARE and SET to the variable's type, and
// the RETURN value to the declared return type. A coercion is the planner
// pseudo-function __coerce(e, 'TYPE'), left out wherever e's static type
// already has the target's runtime kind.
package froid

import (
	"fmt"
	"strconv"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/sqltypes"
)

// Resolver looks up scalar UDF definitions by (lower-case) name.
type Resolver func(name string) (*ast.CreateFunction, bool)

// Stable reason codes a call is left in place for (NotInlinableError.Code).
const (
	// HasLoop: the body has a WHILE/FOR loop or a cursor (run Aggify first).
	HasLoop = "has_loop"
	// SideEffect: the body has a statement an expression cannot carry
	// (PRINT, DML, EXEC, a result set, TRY/CATCH, tuple SET, ...).
	SideEffect = "side_effect"
	// Recursive: the function calls itself, directly or through others.
	Recursive = "recursive"
	// TooLarge: the composed expression exceeds maxExprNodes.
	TooLarge = "too_large"
	// NameCapture: an argument's column cannot be pinned to one caller FROM
	// unit, or a FROM unit inside the body binds the same name.
	NameCapture = "name_capture"
	// FreeVariable: a @var, @@global, column or parameter of the body would
	// be unbound after substitution.
	FreeVariable = "free_variable"
	// RepeatedSubquery: a subquery would be evaluated more often than the
	// call evaluates it (an argument with a subquery, or duplicated
	// subqueries where nothing hoists them).
	RepeatedSubquery = "repeated_subquery"
)

// NotInlinableError reports why a UDF call cannot be replaced by its body.
type NotInlinableError struct {
	Func   string
	Code   string // one of the reason-code constants
	Reason string // human-readable detail
}

func (e *NotInlinableError) Error() string {
	return fmt.Sprintf("froid: %s is not inlinable: %s", e.Func, e.Reason)
}

func decline(fn, code, reason string) error {
	return &NotInlinableError{Func: strings.ToLower(fn), Code: code, Reason: reason}
}

// maxExprNodes caps the size of a composed expression; beyond it the UDF is
// treated as not inlinable (protects against CASE blow-up on deeply
// branching bodies).
const maxExprNodes = 4096

// CoerceFunc is the planner pseudo-function __coerce(e, 'TYPE'): e converted
// by sqltypes.Value.CoerceTo to the type its second argument spells.
const CoerceFunc = "__coerce"

// CoerceArgs decodes a __coerce call: its operand and target type.
func CoerceArgs(e ast.Expr) (ast.Expr, sqltypes.Type, bool) {
	fc, ok := e.(*ast.FuncCall)
	if !ok || !strings.EqualFold(fc.Name, CoerceFunc) || len(fc.Args) != 2 {
		return nil, sqltypes.Unknown, false
	}
	lit, ok := fc.Args[1].(*ast.Literal)
	if !ok || lit.Val.Kind() != sqltypes.KindString {
		return nil, sqltypes.Unknown, false
	}
	t, err := parseTypeText(lit.Val.Str())
	if err != nil {
		return nil, sqltypes.Unknown, false
	}
	return fc.Args[0], t, true
}

// parseTypeText parses a type as sqltypes.Type.String renders it, e.g.
// "DECIMAL(15,2)".
func parseTypeText(s string) (sqltypes.Type, error) {
	name, rest, hasArgs := strings.Cut(s, "(")
	var args []int
	if hasArgs {
		for _, a := range strings.Split(strings.TrimSuffix(rest, ")"), ",") {
			n, err := strconv.Atoi(strings.TrimSpace(a))
			if err != nil {
				return sqltypes.Unknown, fmt.Errorf("froid: bad type %q", s)
			}
			args = append(args, n)
		}
	}
	return sqltypes.ParseType(name, args...)
}

// InlineFunction composes the body of a loop-free scalar UDF into a single
// expression over its parameter variables (@param references remain; bind
// them with SubstituteParams at each call site).
func InlineFunction(def *ast.CreateFunction) (ast.Expr, error) {
	return (&composer{}).compose(def)
}

// composer carries one composition: the resolver that finds the UDFs the
// body calls (nil: none are composed), the functions being composed (for
// recursion), where to report calls left in place, and the calls composed
// into the body.
type composer struct {
	resolve  Resolver
	declined func(name, code string)
	stack    []string
	nested   []string
}

// state is the symbolic environment at one point of a body: each variable's
// current value expression and declared type.
type state struct {
	vals  map[string]ast.Expr
	types map[string]sqltypes.Type
}

func (s state) copy() state {
	out := state{vals: make(map[string]ast.Expr, len(s.vals)), types: make(map[string]sqltypes.Type, len(s.types))}
	for k, v := range s.vals {
		out.vals[k] = v
	}
	for k, t := range s.types {
		out.types[k] = t
	}
	return out
}

func (c *composer) compose(def *ast.CreateFunction) (ast.Expr, error) {
	name := strings.ToLower(def.Name)
	c.stack = append(c.stack, name)
	defer func() { c.stack = c.stack[:len(c.stack)-1] }()

	st := state{vals: map[string]ast.Expr{}, types: map[string]sqltypes.Type{}}
	params := map[string]bool{}
	for _, p := range def.Params {
		// Parameters stay symbolic: they are substituted at the call site.
		st.vals[p.Name] = ast.Var(p.Name)
		st.types[p.Name] = p.Type
		params[p.Name] = true
	}
	ret, err := c.seq(def, def.Body.Stmts, st)
	if err != nil {
		return nil, err
	}
	if ret == nil {
		ret = ast.Lit(sqltypes.Null)
	}
	if exprSize(ret) > maxExprNodes {
		return nil, decline(name, TooLarge, "composed expression too large")
	}
	var free string
	ast.WalkExpr(ret, func(x ast.Expr) bool {
		if v, ok := x.(*ast.VarRef); ok && !params[v.Name] && free == "" {
			free = v.Name
		}
		return free == ""
	})
	if free != "" {
		return nil, decline(name, FreeVariable, "unbound variable "+free)
	}
	return ret, nil
}

// seq symbolically executes a statement sequence. It returns the expression
// of the value returned by the sequence, or nil when the sequence falls
// through without RETURN.
func (c *composer) seq(def *ast.CreateFunction, stmts []ast.Stmt, st state) (ast.Expr, error) {
	for i, s := range stmts {
		switch x := s.(type) {
		case *ast.Block:
			// Flatten: treat the block plus the remaining statements as one
			// sequence (variables are batch-scoped in the dialect).
			merged := append(append([]ast.Stmt{}, x.Stmts...), stmts[i+1:]...)
			return c.seq(def, merged, st)
		case *ast.DeclareVar:
			val := ast.Expr(ast.Lit(sqltypes.Null))
			if x.Init != nil {
				var err error
				if val, err = c.assign(x.Init, x.Type, st); err != nil {
					return nil, err
				}
			}
			st.vals[x.Name] = val
			st.types[x.Name] = x.Type
		case *ast.SetStmt:
			if len(x.Targets) != 1 {
				return nil, decline(def.Name, SideEffect, "tuple-destructuring SET")
			}
			t, declared := st.types[x.Targets[0]]
			if !declared {
				return nil, decline(def.Name, FreeVariable, "assignment to undeclared variable "+x.Targets[0])
			}
			val, err := c.assign(x.Value, t, st)
			if err != nil {
				return nil, err
			}
			st.vals[x.Targets[0]] = val
		case *ast.ReturnStmt:
			if x.Value == nil {
				return ast.Lit(sqltypes.Null), nil
			}
			return c.assign(x.Value, def.Returns, st)
		case *ast.IfStmt:
			cond, _, _, err := c.expr(x.Cond, st)
			if err != nil {
				return nil, err
			}
			thenSt := st.copy()
			thenRet, err := c.seq(def, []ast.Stmt{x.Then}, thenSt)
			if err != nil {
				return nil, err
			}
			elseSt := st.copy()
			var elseRet ast.Expr
			if x.Else != nil {
				if elseRet, err = c.seq(def, []ast.Stmt{x.Else}, elseSt); err != nil {
					return nil, err
				}
			}
			rest := stmts[i+1:]
			switch {
			case thenRet != nil && elseRet != nil:
				// Both branches return: the rest is unreachable.
				return caseExpr(cond, thenRet, elseRet), nil
			case thenRet != nil:
				return c.restOr(def, cond, thenRet, rest, elseSt, false)
			case elseRet != nil:
				return c.restOr(def, cond, elseRet, rest, thenSt, true)
			}
			// Neither branch returns: merge assigned variables. A variable
			// only one branch declares (or the two declare differently) is
			// undeclared on some path, so it is dropped, and a later use of
			// it reads as a free variable.
			for v := range union(thenSt.vals, elseSt.vals) {
				te, tok := thenSt.vals[v]
				ee, eok := elseSt.vals[v]
				if !tok || !eok || thenSt.types[v] != elseSt.types[v] {
					delete(st.vals, v)
					delete(st.types, v)
					continue
				}
				st.types[v] = thenSt.types[v]
				if te.String() == ee.String() {
					st.vals[v] = te
					continue
				}
				st.vals[v] = caseExpr(ast.CloneExpr(cond), te, ee)
			}
		case *ast.PrintStmt:
			return nil, decline(def.Name, SideEffect, "PRINT side effect")
		case *ast.WhileStmt, *ast.ForStmt:
			return nil, decline(def.Name, HasLoop, "loop (run Aggify first)")
		case *ast.DeclareCursor, *ast.OpenCursor, *ast.FetchStmt, *ast.CloseCursor, *ast.DeallocateCursor:
			return nil, decline(def.Name, HasLoop, "cursor operation (run Aggify first)")
		default:
			return nil, decline(def.Name, SideEffect, fmt.Sprintf("unsupported statement %T", s))
		}
	}
	return nil, nil
}

// restOr composes an IF of which one branch returned ret: the other path
// continues with rest under st. inverted says ret is the ELSE branch.
func (c *composer) restOr(def *ast.CreateFunction, cond, ret ast.Expr, rest []ast.Stmt, st state, inverted bool) (ast.Expr, error) {
	restRet, err := c.seq(def, rest, st)
	if err != nil {
		return nil, err
	}
	if restRet == nil {
		restRet = ast.Lit(sqltypes.Null)
	}
	if inverted {
		return caseExpr(cond, restRet, ret), nil
	}
	return caseExpr(cond, ret, restRet), nil
}

// assign prepares a value stored into a variable (or returned) of type t.
func (c *composer) assign(e ast.Expr, t sqltypes.Type, st state) (ast.Expr, error) {
	out, from, known, err := c.expr(e, st)
	if err != nil {
		return nil, err
	}
	return coerce(out, t, from, known), nil
}

// expr prepares one statement expression: its static type under the
// current declarations, its UDF calls composed, its variables substituted.
func (c *composer) expr(e ast.Expr, st state) (ast.Expr, sqltypes.Type, bool, error) {
	ty := typer{vars: st.types, resolve: c.resolve}
	from, known := ty.of(e)
	out, err := c.inlineCalls(e, ty)
	if err != nil {
		return nil, sqltypes.Unknown, false, err
	}
	return substVars(out, st.vals), from, known, nil
}

// inlineCalls composes the resolvable UDF calls of e, outside its
// subqueries. Arguments here are expressions over the enclosing body's
// variables (typed by ty), so they need no qualification.
//
// A call to a function already being composed is a cycle: it fails the
// composition up to the frame that called the cycle's head, which leaves
// that one call in place (so f → g → g keeps the g call inside f, while
// f → f and f → g → f decline f itself).
func (c *composer) inlineCalls(e ast.Expr, ty typer) (ast.Expr, error) {
	if c.resolve == nil {
		return e, nil
	}
	var err error
	out := mapCalls(e, func(call *ast.FuncCall) ast.Expr {
		if err != nil {
			return call
		}
		name := strings.ToLower(call.Name)
		def, ok := c.resolve(name)
		if !ok || call.Star {
			return call
		}
		for _, s := range c.stack {
			if s == name {
				err = decline(name, Recursive, "recursive call")
				return call
			}
		}
		nested := len(c.nested)
		body, cerr := c.compose(def)
		if cerr == nil {
			var bound ast.Expr
			if bound, cerr = bind(def, body, call.Args, Site{}, ty); cerr == nil {
				c.nested = append(c.nested, name)
				return bound
			}
		}
		c.nested = c.nested[:nested] // what def's body inlined is gone with it
		ne, soft := cerr.(*NotInlinableError)
		switch {
		case !soft || ne.Code == Recursive && ne.Func != name:
			err = cerr
		case c.declined != nil:
			c.declined(name, ne.Code)
		}
		return call
	})
	return out, err
}

// Site is the query scope a call is inlined into.
type Site struct {
	// Qualify pins a caller column reference to the one FROM unit that
	// binds it (returning the qualified reference); ok=false declines the
	// call as name_capture. Nil leaves references as written.
	Qualify func(*ast.ColRef) (*ast.ColRef, bool)
	// ColType reports the declared type of a (qualified) caller column,
	// when known; it lets coercions of column arguments fold away.
	ColType func(*ast.ColRef) (sqltypes.Type, bool)
}

// bind substitutes a call's arguments for the parameters of body (def's
// composed body), each coerced to its parameter's type (static types from
// ty), with declared defaults for missing trailing arguments. It declines
// when an argument has a subquery, a column site cannot qualify, or a
// qualifier some FROM unit inside the body also binds.
func bind(def *ast.CreateFunction, body ast.Expr, args []ast.Expr, site Site, ty typer) (ast.Expr, error) {
	if len(args) > len(def.Params) {
		return nil, decline(def.Name, FreeVariable, fmt.Sprintf("%d arguments for %d parameters", len(args), len(def.Params)))
	}
	bound := make([]ast.Expr, len(def.Params))
	quals := map[string]bool{}
	for i, p := range def.Params {
		var a ast.Expr
		switch {
		case i < len(args):
			if ast.HasSubquery(args[i]) {
				return nil, decline(def.Name, RepeatedSubquery, "argument with a subquery")
			}
			a = args[i]
			// Only a subquery of the body can capture an argument's column.
			if site.Qualify != nil && ast.HasSubquery(body) {
				ok := true
				a = ast.MapExpr(a, func(x ast.Expr) ast.Expr {
					cr, isCol := x.(*ast.ColRef)
					if !isCol {
						return x
					}
					q, qok := site.Qualify(cr)
					if !qok {
						ok = false
						return cr
					}
					quals[q.Table] = true
					return q
				})
				if !ok {
					return nil, decline(def.Name, NameCapture, "argument column not pinned to one FROM unit")
				}
			}
		case p.Default != nil:
			a = p.Default
			if len(ast.ColRefs(a)) > 0 || len(ast.VarsInExpr(a)) > 0 || ast.HasSubquery(a) {
				return nil, decline(def.Name, FreeVariable, "default of "+p.Name+" is not a constant")
			}
		default:
			return nil, decline(def.Name, FreeVariable, "missing argument for "+p.Name)
		}
		from, known := ty.of(a)
		bound[i] = coerce(a, p.Type, from, known)
	}
	out, err := SubstituteParams(body, def.Params, bound)
	if err != nil {
		return nil, err
	}
	if len(quals) > 0 && bindsAny(out, quals) {
		return nil, decline(def.Name, NameCapture, "a FROM unit in the body binds an argument's qualifier")
	}
	if exprSize(out) > maxExprNodes {
		return nil, decline(def.Name, TooLarge, "composed expression too large")
	}
	return out, nil
}

// SubstituteParams binds the parameter variables of an inlined body to call
// arguments (applying declared defaults for missing trailing arguments).
func SubstituteParams(body ast.Expr, params []ast.Param, args []ast.Expr) (ast.Expr, error) {
	if len(args) > len(params) {
		return nil, fmt.Errorf("froid: %d arguments for %d parameters", len(args), len(params))
	}
	bind := map[string]ast.Expr{}
	for i, p := range params {
		switch {
		case i < len(args):
			bind[p.Name] = args[i]
		case p.Default != nil:
			bind[p.Name] = p.Default
		default:
			return nil, fmt.Errorf("froid: missing argument for %s", p.Name)
		}
	}
	return substVars(body, bind), nil
}

// InlineCalls replaces each call to an inlinable UDF in e, outside e's
// subqueries, with its composed and bound body. check, when set, vets each
// candidate (the composed body over its parameters, and its bound form) and
// returns a reason code to decline it. inlined and declined report each
// call's outcome, the calls composed into an inlined body included; calls
// that do not resolve to a UDF are not reported.
func InlineCalls(e ast.Expr, resolve Resolver, site Site, check func(body, bound ast.Expr) string,
	inlined func(name string), declined func(name, code string)) ast.Expr {
	return mapCalls(e, func(call *ast.FuncCall) ast.Expr {
		name := strings.ToLower(call.Name)
		def, ok := resolve(name)
		if !ok || call.Star {
			return call
		}
		c := &composer{resolve: resolve, declined: declined}
		body, err := c.compose(def)
		var bound ast.Expr
		if err == nil {
			bound, err = bind(def, body, call.Args, site, typer{cols: site.ColType})
		}
		if err == nil && check != nil {
			if code := check(body, bound); code != "" {
				err = decline(name, code, "declined by the caller")
			}
		}
		if err != nil {
			code := SideEffect
			if ne, ok := err.(*NotInlinableError); ok {
				code = ne.Code
			}
			if declined != nil {
				declined(name, code)
			}
			return call
		}
		if inlined != nil {
			inlined(name)
			for _, n := range c.nested {
				inlined(n)
			}
		}
		return bound
	})
}

// InlineInSelect replaces calls to inlinable UDFs in the query's select
// list, WHERE and HAVING with their composed bodies. It returns the
// rewritten query (a modified clone) and the names of the UDFs that were
// inlined; other calls are left intact. Without a catalog it can pin an
// argument's unqualified column only when the query reads one FROM unit.
func InlineInSelect(q *ast.Select, resolve Resolver) (*ast.Select, []string, error) {
	clone := ast.CloneSelect(q)
	site := Site{Qualify: func(cr *ast.ColRef) (*ast.ColRef, bool) {
		if cr.Table != "" {
			return cr, true
		}
		if len(clone.From) != 1 {
			return nil, false
		}
		if _, isJoin := clone.From[0].(*ast.Join); isJoin {
			return nil, false
		}
		return ast.QCol(ast.BindingName(clone.From[0]), cr.Name), true
	}}
	seen := map[string]bool{}
	var names []string
	inlined := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	rewrite := func(e ast.Expr) ast.Expr {
		if e == nil {
			return nil
		}
		return InlineCalls(e, resolve, site, nil, inlined, nil)
	}
	for i := range clone.Items {
		if !clone.Items[i].Star {
			clone.Items[i].Expr = rewrite(clone.Items[i].Expr)
		}
	}
	clone.Where = rewrite(clone.Where)
	clone.Having = rewrite(clone.Having)
	return clone, names, nil
}

// ----- static types -----

// typer infers static types: the declared type a value is known to have
// the runtime kind of. Variables hold their declared type's kind (every
// assignment coerces), columns their column's, and a UDF call its return
// type's.
type typer struct {
	vars    map[string]sqltypes.Type
	resolve Resolver
	cols    func(*ast.ColRef) (sqltypes.Type, bool)
}

func (ty typer) of(e ast.Expr) (sqltypes.Type, bool) {
	switch x := e.(type) {
	case *ast.Literal:
		return valueType(x.Val)
	case *ast.VarRef:
		t, ok := ty.vars[x.Name]
		return t, ok
	case *ast.ColRef:
		if ty.cols != nil {
			return ty.cols(x)
		}
	case *ast.FuncCall:
		if _, t, ok := CoerceArgs(x); ok {
			return t, true
		}
		if ty.resolve != nil {
			if def, ok := ty.resolve(strings.ToLower(x.Name)); ok {
				return def.Returns, true
			}
		}
	case *ast.BinExpr:
		if x.Op.IsComparison() || x.Op == sqltypes.OpAnd || x.Op == sqltypes.OpOr || x.Op == sqltypes.OpLike {
			return sqltypes.Bit, true
		}
		if x.Op == sqltypes.OpConcat {
			break
		}
		l, lok := ty.of(x.L)
		r, rok := ty.of(x.R)
		if !lok || !rok {
			break
		}
		switch {
		case l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt:
			return sqltypes.Int, true
		case numeric(l) && numeric(r):
			return sqltypes.Float, true
		}
	case *ast.UnaryExpr:
		if x.Op != '-' {
			return sqltypes.Bit, true
		}
		if t, ok := ty.of(x.E); ok && numeric(t) {
			return t, true
		}
	case *ast.IsNullExpr, *ast.BetweenExpr, *ast.InExpr:
		return sqltypes.Bit, true
	case *ast.CaseExpr:
		// Every arm of one type (NULL arms fit any).
		var out sqltypes.Type
		have := false
		arms := []ast.Expr{x.Else}
		for _, w := range x.Whens {
			arms = append(arms, w.Then)
		}
		for _, a := range arms {
			if a == nil || isNullLit(a) {
				continue
			}
			t, ok := ty.of(a)
			if !ok || (have && t != out) {
				return sqltypes.Unknown, false
			}
			out, have = t, true
		}
		return out, have
	}
	return sqltypes.Unknown, false
}

func numeric(t sqltypes.Type) bool {
	return t.Kind() == sqltypes.KindInt || t.Kind() == sqltypes.KindFloat
}

// valueType is the static type of a literal value.
func valueType(v sqltypes.Value) (sqltypes.Type, bool) {
	switch v.Kind() {
	case sqltypes.KindBool:
		return sqltypes.Bit, true
	case sqltypes.KindInt:
		return sqltypes.Int, true
	case sqltypes.KindFloat:
		return sqltypes.Float, true
	case sqltypes.KindString:
		return sqltypes.VarChar(len(v.Str())), true
	case sqltypes.KindDate:
		return sqltypes.Date, true
	}
	return sqltypes.Unknown, false
}

// coerce wraps e in a coercion to t unless CoerceTo(t) is the identity on
// every value of e's static type from.
func coerce(e ast.Expr, t, from sqltypes.Type, known bool) ast.Expr {
	if isNullLit(e) || known && sameRuntime(from, t) {
		return e
	}
	return &ast.FuncCall{Name: CoerceFunc, Args: []ast.Expr{e, ast.StrLit(t.String())}}
}

// sameRuntime reports whether CoerceTo(to) leaves every value of type from
// unchanged: the same runtime kind, and for strings no truncation.
func sameRuntime(from, to sqltypes.Type) bool {
	k := to.Kind()
	if k == sqltypes.KindNull || from.Kind() != k {
		return false
	}
	if k == sqltypes.KindString && to.Prec > 0 {
		return from.Prec <= to.Prec
	}
	return true
}

func isNullLit(e ast.Expr) bool {
	lit, ok := e.(*ast.Literal)
	return ok && lit.Val.IsNull()
}

// ----- helpers -----

func union(a, b map[string]ast.Expr) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// bindsAny reports whether a FROM unit or CTE of any query nested in e binds
// one of names.
func bindsAny(e ast.Expr, names map[string]bool) bool {
	var sel func(q *ast.Select) bool
	var unit func(te ast.TableExpr) bool
	unit = func(te ast.TableExpr) bool {
		switch t := te.(type) {
		case *ast.TableRef:
			return names[strings.ToLower(ast.BindingName(t))]
		case *ast.SubqueryRef:
			return names[strings.ToLower(t.Alias)] || sel(t.Query)
		case *ast.Join:
			return unit(t.L) || unit(t.R)
		}
		return false
	}
	sel = func(q *ast.Select) bool {
		for b := q; b != nil; b = b.Union {
			for _, cte := range b.With {
				if names[strings.ToLower(cte.Name)] || sel(cte.Query) {
					return true
				}
			}
			for _, te := range b.From {
				if unit(te) {
					return true
				}
			}
		}
		return false
	}
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch t := x.(type) {
		case *ast.Subquery:
			found = found || sel(t.Query)
		case *ast.InExpr:
			found = found || t.Query != nil && sel(t.Query)
		}
		return !found
	})
	return found
}

// mapCalls rebuilds e bottom-up, replacing each function call outside
// subqueries by fn's result (arguments are mapped first).
func mapCalls(e ast.Expr, fn func(*ast.FuncCall) ast.Expr) ast.Expr {
	return ast.MapExpr(e, func(x ast.Expr) ast.Expr {
		if call, ok := x.(*ast.FuncCall); ok {
			return fn(call)
		}
		return x
	})
}

// substVars replaces variable references in e with their symbolic values,
// descending into subqueries (which may be correlated to the variables).
func substVars(e ast.Expr, env map[string]ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ast.VarRef:
		if repl, ok := env[x.Name]; ok {
			return ast.CloneExpr(repl)
		}
		return x
	case *ast.Literal, *ast.ColRef, *ast.ParamRef:
		return e
	case *ast.BinExpr:
		return &ast.BinExpr{Op: x.Op, L: substVars(x.L, env), R: substVars(x.R, env)}
	case *ast.UnaryExpr:
		return &ast.UnaryExpr{Op: x.Op, E: substVars(x.E, env)}
	case *ast.IsNullExpr:
		return &ast.IsNullExpr{E: substVars(x.E, env), Negate: x.Negate}
	case *ast.CaseExpr:
		out := &ast.CaseExpr{}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, ast.WhenClause{Cond: substVars(w.Cond, env), Then: substVars(w.Then, env)})
		}
		if x.Else != nil {
			out.Else = substVars(x.Else, env)
		}
		return out
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, substVars(a, env))
		}
		return out
	case *ast.BetweenExpr:
		return &ast.BetweenExpr{E: substVars(x.E, env), Lo: substVars(x.Lo, env), Hi: substVars(x.Hi, env), Negate: x.Negate}
	case *ast.InExpr:
		out := &ast.InExpr{E: substVars(x.E, env), Negate: x.Negate}
		for _, it := range x.List {
			out.List = append(out.List, substVars(it, env))
		}
		if x.Query != nil {
			out.Query = substVarsInSelect(x.Query, env)
		}
		return out
	case *ast.Subquery:
		return &ast.Subquery{Query: substVarsInSelect(x.Query, env), Exists: x.Exists}
	}
	return e
}

// substVarsInSelect clones q substituting variable references everywhere.
func substVarsInSelect(q *ast.Select, env map[string]ast.Expr) *ast.Select {
	c := ast.CloneSelect(q)
	var walkTE func(te ast.TableExpr)
	var walkQ func(s *ast.Select)
	walkQ = func(s *ast.Select) {
		for branch := s; branch != nil; branch = branch.Union {
			for i := range branch.Items {
				branch.Items[i].Expr = substVars(branch.Items[i].Expr, env)
			}
			for _, te := range branch.From {
				walkTE(te)
			}
			branch.Where = substVars(branch.Where, env)
			for i := range branch.GroupBy {
				branch.GroupBy[i] = substVars(branch.GroupBy[i], env)
			}
			branch.Having = substVars(branch.Having, env)
			for i := range branch.OrderBy {
				branch.OrderBy[i].Expr = substVars(branch.OrderBy[i].Expr, env)
			}
			if branch.Top != nil {
				branch.Top = substVars(branch.Top, env)
			}
		}
		for i := range s.With {
			walkQ(s.With[i].Query)
		}
	}
	walkTE = func(te ast.TableExpr) {
		switch t := te.(type) {
		case *ast.SubqueryRef:
			walkQ(t.Query)
		case *ast.Join:
			walkTE(t.L)
			walkTE(t.R)
			t.On = substVars(t.On, env)
		}
	}
	walkQ(c)
	return c
}

func caseExpr(cond, then, els ast.Expr) ast.Expr {
	return &ast.CaseExpr{Whens: []ast.WhenClause{{Cond: cond, Then: then}}, Else: els}
}

func exprSize(e ast.Expr) int {
	n := 0
	ast.WalkExpr(e, func(ast.Expr) bool { n++; return true })
	return n
}
