package froid_test

import (
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/froid"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
)

func parseFunc(t *testing.T, src string) *ast.CreateFunction {
	t.Helper()
	for _, s := range parser.MustParse(src) {
		if f, ok := s.(*ast.CreateFunction); ok {
			return f
		}
	}
	t.Fatal("no function")
	return nil
}

func TestInlineStraightLine(t *testing.T) {
	fn := parseFunc(t, `
create function f(@x int) returns int as
begin
  declare @y int = @x * 2;
  set @y = @y + 1;
  return @y;
end`)
	e, err := froid.InlineFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "((@x * 2) + 1)" {
		t.Fatalf("inlined = %s", got)
	}
}

func TestInlineIfElse(t *testing.T) {
	fn := parseFunc(t, `
create function f(@x int) returns int as
begin
  declare @y int;
  if @x > 0
    set @y = @x;
  else
    set @y = 0 - @x;
  return @y;
end`)
	e, err := froid.InlineFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	want := "CASE WHEN (@x > 0) THEN @x ELSE (0 - @x) END"
	if e.String() != want {
		t.Fatalf("inlined = %s, want %s", e, want)
	}
}

func TestInlineEarlyReturn(t *testing.T) {
	fn := parseFunc(t, `
create function f(@x int) returns int as
begin
  if @x < 0 return 0;
  if @x > 100 return 100;
  return @x;
end`)
	e, err := froid.InlineFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	want := "CASE WHEN (@x < 0) THEN 0 ELSE CASE WHEN (@x > 100) THEN 100 ELSE @x END END"
	if e.String() != want {
		t.Fatalf("inlined = %s", e)
	}
}

func TestInlineBranchAssignThenUse(t *testing.T) {
	// The Fig. 7 pattern: conditional assignment before the big expression.
	fn := parseFunc(t, `
create function f(@lb int) returns int as
begin
  if @lb = -1
    set @lb = 42;
  return @lb * 10;
end`)
	e, err := froid.InlineFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	want := "(CASE WHEN (@lb = -1) THEN 42 ELSE @lb END * 10)"
	if e.String() != want {
		t.Fatalf("inlined = %s", e)
	}
}

func TestInlineSubqueryBody(t *testing.T) {
	fn := parseFunc(t, `
create function f(@k int) returns float as
begin
  declare @m float;
  set @m = (select min(v) from t where id = @k);
  return @m;
end`)
	e, err := froid.InlineFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "(id = @k)") {
		t.Fatalf("inlined = %s", e)
	}
}

func TestNotInlinable(t *testing.T) {
	cases := []string{
		`create function f() returns int as begin declare @i int = 0; while @i < 3 set @i = @i + 1; return @i; end`,
		`create function f() returns int as begin print 'x'; return 1; end`,
		`create function f() returns int as
		 begin
		   declare @n int;
		   declare c cursor for select a from t;
		   open c; fetch next from c into @n;
		   while @@fetch_status = 0 begin fetch next from c into @n; end
		   close c; deallocate c;
		   return @n;
		 end`,
	}
	for _, src := range cases {
		fn := parseFunc(t, src)
		if _, err := froid.InlineFunction(fn); err == nil {
			t.Errorf("should not inline:\n%s", src)
		} else if _, ok := err.(*froid.NotInlinableError); !ok {
			t.Errorf("want NotInlinableError, got %v", err)
		}
	}
}

func TestSubstituteParamsWithDefaults(t *testing.T) {
	fn := parseFunc(t, `
create function f(@a int, @b int = 7) returns int as
begin
  return @a + @b;
end`)
	body, err := froid.InlineFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := froid.SubstituteParams(body, fn.Params, []ast.Expr{ast.Col("x")})
	if err != nil {
		t.Fatal(err)
	}
	if bound.String() != "(x + 7)" {
		t.Fatalf("bound = %s", bound)
	}
	if _, err := froid.SubstituteParams(body, fn.Params, nil); err == nil {
		t.Fatal("missing required argument should error")
	}
}

// TestAggifyPlusPipeline runs the full §8.2 pipeline: Aggify eliminates the
// cursor loop, Froid inlines the now loop-free UDF into the outer query,
// and the planner decorrelates the resulting scalar-aggregate subquery into
// a hash join — all while preserving results.
func TestAggifyPlusPipeline(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	sess := eng.NewSession()
	setup := `
create table part (p_partkey int, p_name varchar(55));
create index pk_part on part(p_partkey);
create table partsupp (ps_partkey int, ps_suppkey int, ps_supplycost decimal(15,2));
create index idx_ps on partsupp(ps_partkey);
create table supplier (s_suppkey int, s_name char(25));
create index pk_supp on supplier(s_suppkey);
insert into part values (1,'a'), (2,'b'), (3,'c'), (4,'lonely');
insert into supplier values (10,'acme'), (11,'bolts'), (12,'cheapco');
insert into partsupp values (1,10,5.0),(1,11,3.5),(2,12,2.0),(3,11,8.0);
GO
create function minCostSupp(@pkey int, @lb int = -1) returns char(25) as
begin
  declare @pCost decimal(15,2);
  declare @sName char(25);
  declare @minCost decimal(15,2) = 100000;
  declare @suppName char(25);
  if (@lb = -1)
    set @lb = 0;
  declare c1 cursor for
    select ps_supplycost, s_name from partsupp, supplier
    where ps_partkey = @pkey and ps_suppkey = s_suppkey;
  open c1;
  fetch next from c1 into @pCost, @sName;
  while @@fetch_status = 0
  begin
    if (@pCost < @minCost and @pCost >= @lb)
    begin
      set @minCost = @pCost;
      set @suppName = @sName;
    end
    fetch next from c1 into @pCost, @sName;
  end
  close c1;
  deallocate c1;
  return @suppName;
end`
	if _, err := interp.RunScript(sess, parser.MustParse(setup)); err != nil {
		t.Fatal(err)
	}

	outer := parser.MustParse("select p_partkey, minCostSupp(p_partkey) as supp from part order by p_partkey")[0].(*ast.QueryStmt).Query

	// Baseline: interpreted UDF with cursor loop.
	_, baseRows, err := sess.Query(outer, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Step 1: Aggify.
	fn, _ := eng.Function("mincostsupp")
	rewritten, res, err := core.TransformFunction(fn, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("aggify skipped: %v", res.Skipped)
	}
	for _, lr := range res.Loops {
		if err := eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
			t.Fatal(err)
		}
	}

	// Step 2: Froid-inline the rewritten (loop-free) UDF into the query.
	resolver := func(name string) (*ast.CreateFunction, bool) {
		if name == "mincostsupp" {
			return rewritten, true
		}
		return nil, false
	}
	inlined, names, err := froid.InlineInSelect(outer, resolver)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "mincostsupp" {
		t.Fatalf("inlined = %v", names)
	}

	// Step 3: plan — the decorrelation rule must fire.
	p, err := sess.PlanQuery(inlined, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Explain.Contains("HashJoin") {
		t.Fatalf("expected decorrelated hash join, got:\n%s", p.Explain)
	}

	_, plusRows, err := sess.Query(inlined, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(plusRows) != len(baseRows) {
		t.Fatalf("row counts: %d vs %d", len(plusRows), len(baseRows))
	}
	for i := range baseRows {
		for j := range baseRows[i] {
			if !sqltypes.GroupEqual(baseRows[i][j], plusRows[i][j]) {
				t.Fatalf("row %d: base %v vs aggify+ %v", i, baseRows[i], plusRows[i])
			}
		}
	}
	// Part 4 (no suppliers) must be present with NULL in both.
	if !baseRows[3][1].IsNull() || !plusRows[3][1].IsNull() {
		t.Fatalf("lonely part: base %v, plus %v", baseRows[3], plusRows[3])
	}

	// Ablation: with decorrelation disabled, results still agree.
	off := eng.NewSession()
	off.Opts.DisableRules = plan.RuleDecorrelate
	pOff, err := off.PlanQuery(inlined, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pOff.Explain.Contains("__dcor") {
		t.Fatalf("decorrelation ran despite being disabled:\n%s", pOff.Explain)
	}
	_, offRows, err := off.Query(inlined, off.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseRows {
		for j := range baseRows[i] {
			if !sqltypes.GroupEqual(baseRows[i][j], offRows[i][j]) {
				t.Fatalf("row %d (no decorrelation): %v vs %v", i, baseRows[i], offRows[i])
			}
		}
	}
}

func TestInlineInSelectLeavesUnknownCalls(t *testing.T) {
	q := parser.MustParse("select upper(name), mystery(x) from t")[0].(*ast.QueryStmt).Query
	out, names, err := froid.InlineInSelect(q, func(string) (*ast.CreateFunction, bool) { return nil, false })
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("inlined %v", names)
	}
	if out.String() != q.String() {
		t.Fatalf("query changed: %s", out)
	}
}

func TestTransitiveInlining(t *testing.T) {
	inner := parseFunc(t, `create function g(@x int) returns int as begin return @x + 1; end`)
	outer := parseFunc(t, `create function f(@x int) returns int as begin return g(@x) * 2; end`)
	resolve := func(name string) (*ast.CreateFunction, bool) {
		switch name {
		case "g":
			return inner, true
		case "f":
			return outer, true
		}
		return nil, false
	}
	q := parser.MustParse("select f(a) from t")[0].(*ast.QueryStmt).Query
	out, names, err := froid.InlineInSelect(q, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("inlined = %v", names)
	}
	// f's argument binds to g's INT parameter; the column's type is unknown
	// without a catalog, so it is coerced as the interpreter would.
	if got := out.Items[0].Expr.String(); got != "((__coerce(a, 'INT') + 1) * 2)" {
		t.Fatalf("inlined expr = %s", got)
	}
}

func TestRecursiveUDFBounded(t *testing.T) {
	// A self-recursive UDF must not hang the inliner.
	rec := parseFunc(t, `create function f(@x int) returns int as begin return f(@x - 1); end`)
	resolve := func(name string) (*ast.CreateFunction, bool) {
		if name == "f" {
			return rec, true
		}
		return nil, false
	}
	q := parser.MustParse("select f(a) from t")[0].(*ast.QueryStmt).Query
	if _, _, err := froid.InlineInSelect(q, resolve); err != nil {
		t.Fatalf("bounded inlining should not error: %v", err)
	}
}

// inlineRepro opens an engine with a small partsupp table and the given
// functions, and answers sql after froid.InlineInSelect rewrote it.
func inlineRepro(t *testing.T, funcs, sql string) ([]sqltypes.Value, []string) {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	sess := eng.NewSession()
	setup := `
create table partsupp (ps_partkey int, ps_suppkey int);
insert into partsupp values (1,10),(1,11),(1,12),(1,13),(2,10),(3,11),(4,12);
GO
` + funcs
	if _, err := interp.RunScript(sess, parser.MustParse(setup)); err != nil {
		t.Fatal(err)
	}
	q := parser.MustParse(sql)[0].(*ast.QueryStmt).Query
	inlined, names, err := froid.InlineInSelect(q, eng.Function)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := sess.Query(inlined, nil)
	if err != nil {
		t.Fatalf("%s: %v", inlined, err)
	}
	if len(rows) != 1 {
		t.Fatalf("%s: %d rows", inlined, len(rows))
	}
	return rows[0], names
}

// TestInlineArgumentNotCaptured: the argument ps_partkey names the caller's
// column, but substituted unqualified into the body it would resolve to the
// body's own partsupp row and count the whole table. The body binds the
// caller's qualifier too, so the call stays a call and answers 4.
func TestInlineArgumentNotCaptured(t *testing.T) {
	row, names := inlineRepro(t, `
create function nsupp(@k int) returns int as
begin
  return (select count(*) from partsupp where ps_partkey = @k);
end`, "select top 1 ps_partkey, nsupp(ps_partkey) from partsupp where ps_partkey = 1")
	if got := row[1]; got.Kind() != sqltypes.KindInt || got.Int() != 4 {
		t.Fatalf("nsupp(1) inlined = %v (inlined %v), want 4", got, names)
	}
}

// TestInlineCoercesNumericParameter: half's DECIMAL parameter makes the
// INT argument a float before the division, as the call binds it.
func TestInlineCoercesNumericParameter(t *testing.T) {
	row, names := inlineRepro(t, `
create function half(@x decimal(15,2)) returns float as
begin
  return @x / 2;
end`, "select half(3)")
	if got := row[0]; got.Kind() != sqltypes.KindFloat || got.Float() != 1.5 || len(names) != 1 {
		t.Fatalf("half(3) inlined = %v (inlined %v), want 1.5", got, names)
	}
}

// TestInlineCoercesDateParameter: plus90's DATE parameter turns the string
// argument into a date, so day arithmetic applies.
func TestInlineCoercesDateParameter(t *testing.T) {
	row, names := inlineRepro(t, `
create function plus90(@d date) returns date as
begin
  return @d + 90;
end`, "select plus90('1994-01-01')")
	if got := row[0]; got.Kind() != sqltypes.KindDate || got.String() != "'1994-04-01'" || len(names) != 1 {
		t.Fatalf("plus90('1994-01-01') inlined = %v (inlined %v), want '1994-04-01'", got, names)
	}
}

// TestDeclineReasonCodes: every call froid leaves in place carries one of
// the stable reason codes.
func TestDeclineReasonCodes(t *testing.T) {
	branchy := "create function big(@x int) returns int as begin declare @y int = @x;" +
		strings.Repeat(" if @x > 0 set @y = @y + @y;", 12) + " return @y; end"
	cases := []struct {
		src, call, code string
	}{
		{`create function f(@x int) returns int as begin while @x > 0 set @x = @x - 1; return @x; end`, "f(a)", froid.HasLoop},
		{`create function f(@x int) returns int as begin print 'x'; return @x; end`, "f(a)", froid.SideEffect},
		{`create function f(@x int) returns int as begin return f(@x - 1); end`, "f(a)", froid.Recursive},
		{branchy, "big(a)", froid.TooLarge},
		{`create function f(@x int) returns int as begin return @x + @y; end`, "f(a)", froid.FreeVariable},
		{`create function f(@x int) returns int as begin set @z = 1; return @x; end`, "f(a)", froid.FreeVariable},
		{`create function f(@x int) returns int as begin return (select count(*) from t where t.a = @x); end`, "f(a)", froid.NameCapture},
		{`create function f(@x int) returns int as begin return @x; end`, "f((select max(a) from t))", froid.RepeatedSubquery},
	}
	for _, tc := range cases {
		fn := parseFunc(t, tc.src)
		resolve := func(name string) (*ast.CreateFunction, bool) { return fn, name == strings.ToLower(fn.Name) }
		q := parser.MustParse("select " + tc.call + " from t")[0].(*ast.QueryStmt).Query
		var got []string
		site := froid.Site{Qualify: func(cr *ast.ColRef) (*ast.ColRef, bool) { return ast.QCol("t", cr.Name), true }}
		out := froid.InlineCalls(q.Items[0].Expr, resolve, site, nil, nil, func(name, code string) { got = append(got, code) })
		if len(got) != 1 || got[0] != tc.code || out.String() != q.Items[0].Expr.String() {
			t.Errorf("%s: declined %v, left %s; want [%s] and the call kept", tc.call, got, out, tc.code)
		}
	}
}
