package plan

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// The differential property test: every expression below is compiled twice
// in-package — once through compileExpr into the generic per-row closure
// (the reference: what every filter ran before kernels existed), once
// through compilePredicate — and evaluated over the same rows. Selection and
// error must be identical, through the bare BoundPredicate, through FilterOp
// and through a scan that filters.

// predValues is every kind a column or an operand can hold, with the pairs
// that exercise coercion: int against float, a date against a date-shaped
// and a non-date string, bool against int, NULL against everything.
var predValues = []sqltypes.Value{
	sqltypes.NewInt(5), sqltypes.NewInt(-3), sqltypes.NewInt(math.MaxInt64),
	sqltypes.NewFloat(5), sqltypes.NewFloat(2.5),
	sqltypes.MustDate("1995-03-15"), sqltypes.MustDate("1998-12-01"),
	sqltypes.NewString("1995-03-15"), sqltypes.NewString("abc"), sqltypes.NewString("5"),
	sqltypes.NewBool(true), sqltypes.NewBool(false),
	sqltypes.Null,
}

// predEnv is a row scope, the rows to filter, and a context whose parameters
// and variables mirror predValues. tab, when set, holds the same rows, for
// the scan that filters.
type predEnv struct {
	c    *compiler
	sc   *scope
	rows []exec.Row
	tab  *storage.Table
	ctx  *exec.Ctx
}

// newPredEnv has columns c and d of no declared type, so that every kind
// meets every kind: row i holds predValues[i] in c.
func newPredEnv() *predEnv {
	env := newEnvOver(&scope{})
	env.sc.add("t", "c", sqltypes.Unknown)
	env.sc.add("t", "d", sqltypes.Unknown)
	for i, v := range predValues {
		env.rows = append(env.rows, exec.Row{v, predValues[(i+4)%len(predValues)]})
	}
	return env
}

// newTableEnv has the same values in a stored table, one typed column per
// kind (storage coerces on insert), NULLs included.
func newTableEnv(t *testing.T) *predEnv {
	tab := storage.NewTable("pt", storage.NewSchema(
		storage.Column{Name: "i", Type: sqltypes.Int},
		storage.Column{Name: "f", Type: sqltypes.Float},
		storage.Column{Name: "m", Type: sqltypes.Decimal(15, 2)},
		storage.Column{Name: "dt", Type: sqltypes.Date},
		storage.Column{Name: "s", Type: sqltypes.VarChar(20)},
		storage.Column{Name: "b", Type: sqltypes.Bit},
	))
	null := sqltypes.Null
	for _, r := range []exec.Row{
		{sqltypes.NewInt(5), sqltypes.NewFloat(5), sqltypes.NewFloat(2.5), sqltypes.MustDate("1995-03-15"), sqltypes.NewString("1995-03-15"), sqltypes.NewBool(true)},
		{sqltypes.NewInt(-3), sqltypes.NewFloat(2.5), sqltypes.NewFloat(5), sqltypes.MustDate("1998-12-01"), sqltypes.NewString("abc"), sqltypes.NewBool(false)},
		{null, null, null, null, null, null},
		{sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(-3), null, sqltypes.MustDate("1995-03-16"), sqltypes.NewString("5"), null},
	} {
		if err := tab.Insert(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	env := newEnvOver(tableScope(tab))
	env.tab = tab
	tab.Scan(nil, nil, func(_ int, row []sqltypes.Value) bool {
		env.rows = append(env.rows, row)
		return true
	})
	return env
}

func newEnvOver(sc *scope) *predEnv {
	sc.parent = &scope{}
	sc.parent.add("o", "outer_c", sqltypes.Unknown)
	return &predEnv{
		c:  &compiler{cat: noCatalog{}},
		sc: sc,
		ctx: &exec.Ctx{
			Params:    predValues,
			OuterRows: []exec.Row{{sqltypes.NewInt(5)}},
			Vars: func(name string) (sqltypes.Value, bool) {
				var i int
				if _, err := fmt.Sscanf(name, "@v%d", &i); err != nil || i >= len(predValues) {
					return sqltypes.Null, false
				}
				return predValues[i], true
			},
		},
	}
}

type noCatalog struct{}

func (noCatalog) ResolveTable(name string) (*storage.Table, error) {
	return nil, fmt.Errorf("no table %s", name)
}
func (noCatalog) AggSpec(string) (*exec.AggSpec, bool) { return nil, false }
func (noCatalog) ScalarFunc(name string) (*ast.CreateFunction, bool) {
	return &ast.CreateFunction{Name: name}, name == "udf"
}

// outcome is what evaluating a filter over the rows produced: the rows that
// passed before the first error, rendered in order, and that error.
type outcome struct {
	sel []string
	err string
}

func (o *outcome) take(r exec.Row) { o.sel = append(o.sel, fmt.Sprint(r)) }

func (o *outcome) fail(err error) outcome { o.err = err.Error(); return *o }

func (o outcome) String() string { return fmt.Sprintf("sel=%v err=%q", o.sel, o.err) }

func sameOutcome(a, b outcome) bool {
	return fmt.Sprint(a.sel) == fmt.Sprint(b.sel) && a.err == b.err
}

// reference evaluates e the old way: one closure, called per row.
func (env *predEnv) reference(t *testing.T, e ast.Expr, rows []exec.Row) outcome {
	t.Helper()
	s, err := env.c.compileExpr(e, env.sc, nil)
	if err != nil {
		t.Fatalf("compileExpr(%s): %v", e, err)
	}
	var out outcome
	for _, r := range rows {
		v, err := s(env.ctx, r)
		if err != nil {
			return out.fail(err)
		}
		if v.Truthy() {
			out.take(r)
		}
	}
	return out
}

// bound evaluates p through a bare BoundPredicate, row by row.
func (env *predEnv) bound(p *exec.Predicate, rows []exec.Row) outcome {
	var bp exec.BoundPredicate
	bp.Reset(p)
	var out outcome
	for _, r := range rows {
		ok, err := bp.Match(env.ctx, r)
		if err != nil {
			return out.fail(err)
		}
		if ok {
			out.take(r)
		}
	}
	return out
}

// drain pulls op to its end or first error.
func (env *predEnv) drain(op exec.Operator) outcome {
	var out outcome
	defer op.Close()
	if err := op.Open(env.ctx); err != nil {
		return out.fail(err)
	}
	for {
		r, err := op.Next(env.ctx)
		if err != nil {
			return out.fail(err)
		}
		if r == nil {
			return out
		}
		out.take(r)
	}
}

// check compares the reference with every kernel-bearing path for one
// expression, over the rows and over empty input (where nothing may be
// bound, so nothing raised). wantTag is the EXPLAIN tag the predicate must
// carry: a shape that silently fell back to the generic path fails the test
// instead of passing vacuously.
func (env *predEnv) check(t *testing.T, e ast.Expr, wantTag string) {
	t.Helper()
	p, tag, err := env.c.compilePredicate(e, env.sc, nil)
	if err != nil {
		t.Fatalf("compilePredicate(%s): %v", e, err)
	}
	if tag != wantTag {
		t.Fatalf("%s: tag %q, want %q", e, tag, wantTag)
	}
	for _, rows := range [][]exec.Row{env.rows, nil} {
		want := env.reference(t, e, rows)
		if got := env.bound(p, rows); !sameOutcome(got, want) {
			t.Errorf("%s: bound predicate %v, generic closure %v", e, got, want)
		}
		if got := env.drain(&exec.FilterOp{Child: &exec.BufferScanOp{Rows: rows}, Pred: p}); !sameOutcome(got, want) {
			t.Errorf("%s: FilterOp.Next %v, generic closure %v", e, got, want)
		}
	}
	if env.tab == nil || tag != " [bound]" {
		return // a scan takes kernel-only predicates
	}
	want := env.reference(t, e, env.rows)
	if got := env.drain(&exec.ScanOp{Table: env.tab, Pred: p}); !sameOutcome(got, want) {
		t.Errorf("%s: filtering ScanOp.Next %v, generic closure %v", e, got, want)
	}
}

// operandForms renders value i three ways: literal, `?`, @var.
func operandForms(i int) []ast.Expr {
	return []ast.Expr{ast.Lit(predValues[i]), &ast.ParamRef{Index: i}, ast.Var(fmt.Sprintf("@v%d", i))}
}

var cmpOps = []sqltypes.BinaryOp{sqltypes.OpEq, sqltypes.OpNe, sqltypes.OpLt, sqltypes.OpLe, sqltypes.OpGt, sqltypes.OpGe}

func TestKernelMatchesGenericComparisons(t *testing.T) {
	env := newPredEnv()
	for _, op := range cmpOps {
		for i := range predValues {
			for _, inv := range operandForms(i) {
				env.check(t, ast.Bin(op, ast.Col("c"), inv), " [bound]")
				env.check(t, ast.Bin(op, inv, ast.Col("c")), " [bound]")
			}
		}
	}
	// The same operators over stored, typed columns, through the scan.
	tenv := newTableEnv(t)
	for _, col := range tenv.tab.Schema.Names() {
		for _, op := range cmpOps {
			for i := range predValues {
				tenv.check(t, ast.Bin(op, ast.Col(col), &ast.ParamRef{Index: i}), " [bound]")
			}
		}
		for lo := range predValues {
			tenv.check(t, &ast.BetweenExpr{E: ast.Col(col), Lo: ast.Lit(predValues[lo]), Hi: ast.Var("@v3"), Negate: lo%2 == 1}, " [bound]")
		}
		tenv.check(t, &ast.InExpr{E: ast.Col(col), List: []ast.Expr{ast.Lit(sqltypes.Null), &ast.ParamRef{Index: 0}, ast.StrLit("abc")}}, " [bound]")
		tenv.check(t, &ast.IsNullExpr{E: ast.Col(col), Negate: true}, " [bound]")
		tenv.check(t, ast.Bin(sqltypes.OpLt, ast.Col(col), &ast.ParamRef{Index: 99}), " [bound]")
	}
	// An outer column and arithmetic over invariants are invariants too.
	env.check(t, ast.Bin(sqltypes.OpLe, ast.Col("c"), ast.Col("outer_c")), " [bound]")
	env.check(t, ast.Bin(sqltypes.OpLt, ast.Col("c"),
		ast.Bin(sqltypes.OpAdd, &ast.ParamRef{Index: 5}, ast.IntLit(90))), " [bound]")
}

func TestKernelMatchesGenericBetweenInIsNull(t *testing.T) {
	env := newPredEnv()
	for lo := range predValues {
		for hi := range predValues {
			for _, negate := range []bool{false, true} {
				env.check(t, &ast.BetweenExpr{E: ast.Col("c"), Lo: ast.Lit(predValues[lo]), Hi: &ast.ParamRef{Index: hi}, Negate: negate}, " [bound]")
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 200; n++ {
		in := &ast.InExpr{E: ast.Col("c"), Negate: n%2 == 1}
		for k := rng.Intn(4) + 1; k > 0; k-- {
			in.List = append(in.List, operandForms(rng.Intn(len(predValues)))[rng.Intn(3)])
		}
		env.check(t, in, " [bound]")
	}
	env.check(t, &ast.IsNullExpr{E: ast.Col("c")}, " [bound]")
	env.check(t, &ast.IsNullExpr{E: ast.Col("c"), Negate: true}, " [bound]")
}

// TestKernelMatchesGenericErrors covers the invariants that fail to
// evaluate, and where in the row stream that failure must surface.
func TestKernelMatchesGenericErrors(t *testing.T) {
	env := newPredEnv()
	col := ast.Col("c")
	overflow := ast.Bin(sqltypes.OpAdd, ast.Lit(sqltypes.NewInt(math.MaxInt64)), ast.IntLit(1))
	divZero := ast.Bin(sqltypes.OpDiv, ast.IntLit(1), ast.IntLit(0))
	unbound := &ast.ParamRef{Index: len(predValues) + 3}
	undeclared := ast.Var("@nope")
	for _, bad := range []ast.Expr{overflow, divZero, unbound, undeclared} {
		lt := ast.Bin(sqltypes.OpLt, col, bad)
		env.check(t, lt, " [bound]")
		env.check(t, &ast.BetweenExpr{E: col, Lo: ast.IntLit(0), Hi: bad}, " [bound]")
		env.check(t, &ast.BetweenExpr{E: col, Lo: bad, Hi: unbound, Negate: true}, " [bound]")
		// IN stops at its first match and never looks at a NULL column, so
		// a bad item is reached by some rows only.
		env.check(t, &ast.InExpr{E: col, List: []ast.Expr{ast.IntLit(5), bad}}, " [bound]")
		// A FALSE earlier conjunct hides the error on that row; a NULL one
		// does not (Kleene AND keeps evaluating), and neither does TRUE.
		env.check(t, ast.And(ast.Bin(sqltypes.OpGt, col, ast.IntLit(1000)), lt), " [bound]")
		env.check(t, ast.And(ast.Bin(sqltypes.OpGt, col, ast.Lit(sqltypes.Null)), lt), " [bound]")
		env.check(t, ast.And(ast.Bin(sqltypes.OpEq, col, ast.IntLit(-3)), lt), " [bound]")
		env.check(t, ast.And(&ast.IsNullExpr{E: col}, lt), " [bound]")
	}
}

// TestKernelMatchesGenericConjunctions mixes kernels with conjuncts that
// must stay generic, in both orders.
func TestKernelMatchesGenericConjunctions(t *testing.T) {
	env := newPredEnv()
	col, d := ast.Col("c"), ast.Col("d")
	kernels := []ast.Expr{
		ast.Bin(sqltypes.OpGe, col, ast.IntLit(0)),
		ast.Bin(sqltypes.OpNe, d, ast.StrLit("abc")),
		&ast.BetweenExpr{E: col, Lo: ast.IntLit(-5), Hi: &ast.ParamRef{Index: 0}},
		&ast.IsNullExpr{E: d, Negate: true},
		ast.Bin(sqltypes.OpLt, col, ast.Lit(sqltypes.Null)),
	}
	generics := map[string]ast.Expr{
		"column_vs_column":  ast.Bin(sqltypes.OpLt, col, d),
		"or":                ast.Bin(sqltypes.OpOr, ast.Bin(sqltypes.OpEq, col, ast.IntLit(5)), &ast.IsNullExpr{E: d}),
		"column_expression": ast.Bin(sqltypes.OpGt, col, ast.Bin(sqltypes.OpAdd, d, ast.IntLit(1))),
		"no_column":         ast.Bin(sqltypes.OpGt, &ast.ParamRef{Index: 0}, ast.IntLit(1)),
		"not":               &ast.UnaryExpr{Op: '!', E: ast.Bin(sqltypes.OpEq, col, ast.IntLit(5))},
		"like":              ast.Bin(sqltypes.OpLike, d, ast.StrLit("a%")),
		"func_call":         ast.Bin(sqltypes.OpGt, col, &ast.FuncCall{Name: "abs", Args: []ast.Expr{ast.IntLit(-2)}}),
	}
	for why, g := range generics {
		env.check(t, g, " [generic: "+why+"]")
		for _, k := range kernels {
			env.check(t, ast.And(k, g), " [bound+residual]")
			env.check(t, ast.And(g, k), " [bound+residual]")
		}
	}
	for _, a := range kernels {
		for _, b := range kernels {
			env.check(t, ast.And(a, b), " [bound]")
		}
	}
}

// TestKernelReasonCodes pins the reason EXPLAIN gives for the shapes that
// call user code; they need a catalog, so they are classified, not run.
func TestKernelReasonCodes(t *testing.T) {
	env := newPredEnv()
	col := ast.Col("c")
	sub := &ast.Subquery{Query: &ast.Select{Items: []ast.SelectItem{{Expr: ast.IntLit(1)}}}}
	cases := map[string]ast.Expr{
		"udf_call": ast.Bin(sqltypes.OpEq, col, &ast.FuncCall{Name: "udf", Args: []ast.Expr{ast.IntLit(1)}}),
		"subquery": ast.Bin(sqltypes.OpEq, col, sub),
	}
	cases["subquery "] = &ast.InExpr{E: col, Query: sub.Query}
	for why, e := range cases {
		if _, got := env.c.kernelOf(e, env.sc); got != strings.TrimSpace(why) {
			t.Errorf("%s: reason %q, want %q", e, got, why)
		}
	}
}

// TestScanFilterDefersErrorBehindEarlierRows pins the one place a filtering
// scan evaluates ahead of its consumer: a whole refill is tested at once, so
// an error met mid-refill must wait until the rows before it are consumed —
// a TOP that stops earlier never sees it, as with a filter above the scan.
func TestScanFilterDefersErrorBehindEarlierRows(t *testing.T) {
	tab := storage.NewTable("t", storage.NewSchema(storage.Column{Name: "c", Type: sqltypes.Int}))
	for i := int64(-5); i < 15; i++ {
		if err := tab.Insert(nil, exec.Row{sqltypes.NewInt(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rows -5, -4 and -3 match an earlier item; row -2 is the first to reach
	// the item that cannot be evaluated.
	in := &ast.InExpr{E: ast.Col("c"), List: []ast.Expr{
		ast.IntLit(-5), ast.IntLit(-4), ast.IntLit(-3),
		ast.Bin(sqltypes.OpDiv, ast.IntLit(1), ast.IntLit(0)),
	}}
	env := newPredEnv()
	p, tag, err := env.c.compilePredicate(in, tableScope(tab), nil)
	if err != nil || tag != " [bound]" {
		t.Fatalf("tag %q, err %v", tag, err)
	}
	op := &exec.ScanOp{Table: tab, Pred: p}
	if err := op.Open(env.ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for want := int64(-5); want <= -3; want++ {
		r, err := op.Next(env.ctx)
		if err != nil || r == nil || r[0].Int() != want {
			t.Fatalf("row before the error: got %v, %v; want %d", r, err, want)
		}
	}
	if _, err := op.Next(env.ctx); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("after the passing rows: err = %v, want division by zero", err)
	}
}
