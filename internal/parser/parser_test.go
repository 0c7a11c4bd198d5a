package parser

import (
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/sqltypes"
)

func parseOneStmt(t *testing.T, src string) ast.Stmt {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("Parse(%q): got %d statements", src, len(stmts))
	}
	return stmts[0]
}

func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	p, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.ParseExpr()
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestExprPrecedence(t *testing.T) {
	e := parseExpr(t, "1 + 2 * 3")
	b, ok := e.(*ast.BinExpr)
	if !ok || b.Op != sqltypes.OpAdd {
		t.Fatalf("top = %v", e)
	}
	if r, ok := b.R.(*ast.BinExpr); !ok || r.Op != sqltypes.OpMul {
		t.Fatalf("rhs = %v", b.R)
	}
	e = parseExpr(t, "a = 1 or b = 2 and c = 3")
	b = e.(*ast.BinExpr)
	if b.Op != sqltypes.OpOr {
		t.Fatalf("OR should be outermost: %v", e)
	}
	if rb := b.R.(*ast.BinExpr); rb.Op != sqltypes.OpAnd {
		t.Fatalf("AND should bind tighter: %v", b.R)
	}
}

func TestExprKinds(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"@x", "@x"},
		{"@@fetch_status = 0", "(@@fetch_status = 0)"},
		{"t.col", "t.col"},
		{"-1", "-1"},
		{"not a", "(NOT a)"},
		{"a is null", "(a IS NULL)"},
		{"a is not null", "(a IS NOT NULL)"},
		{"a between 1 and 2", "(a BETWEEN 1 AND 2)"},
		{"a not between 1 and 2", "(a NOT BETWEEN 1 AND 2)"},
		{"a in (1, 2, 3)", "(a IN (1, 2, 3))"},
		{"a not in (1)", "(a NOT IN (1))"},
		{"a like 'PROMO%'", "(a LIKE 'PROMO%')"},
		{"count(*)", "count(*)"},
		{"min(a + 1)", "min((a + 1))"},
		{"case when a > 1 then 'x' else 'y' end", "CASE WHEN (a > 1) THEN 'x' ELSE 'y' END"},
		{"'it''s'", "'it''s'"},
		{"date '1995-03-15'", "'1995-03-15'"},
		{"a || 'x'", "(a || 'x')"},
		{"a <> b", "(a <> b)"},
		{"a != b", "(a <> b)"},
		{"1.5e2", "150"},
	}
	for _, c := range cases {
		e := parseExpr(t, c.src)
		if got := e.String(); got != c.want {
			t.Errorf("parse %q = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestExprSubquery(t *testing.T) {
	e := parseExpr(t, "(select count(*) from t where t.a = @x)")
	sq, ok := e.(*ast.Subquery)
	if !ok || sq.Exists {
		t.Fatalf("got %T", e)
	}
	e = parseExpr(t, "exists (select * from t)")
	sq = e.(*ast.Subquery)
	if !sq.Exists {
		t.Fatal("EXISTS flag missing")
	}
	e = parseExpr(t, "a in (select b from t)")
	in := e.(*ast.InExpr)
	if in.Query == nil {
		t.Fatal("IN subquery missing")
	}
}

func TestSelectBasics(t *testing.T) {
	s := parseOneStmt(t, "SELECT ps_supplycost, s_name FROM partsupp, supplier WHERE ps_partkey = @pkey AND ps_suppkey = s_suppkey")
	q := s.(*ast.QueryStmt).Query
	if len(q.Items) != 2 || len(q.From) != 2 || q.Where == nil {
		t.Fatalf("bad parse: %+v", q)
	}
	if q.From[0].(*ast.TableRef).Name != "partsupp" {
		t.Fatal("from parse broken")
	}
}

func TestSelectFull(t *testing.T) {
	src := `SELECT DISTINCT TOP 5 o_custkey, count(*) AS cnt
	        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
	        WHERE o_comment NOT LIKE '%special%'
	        GROUP BY o_custkey HAVING count(*) > 2
	        ORDER BY cnt DESC, o_custkey`
	q := parseOneStmt(t, src).(*ast.QueryStmt).Query
	if !q.Distinct || q.Top == nil {
		t.Fatal("DISTINCT/TOP lost")
	}
	j, ok := q.From[0].(*ast.Join)
	if !ok || j.Kind != ast.JoinInner {
		t.Fatalf("join parse: %T", q.From[0])
	}
	if len(q.GroupBy) != 1 || q.Having == nil {
		t.Fatal("GROUP BY/HAVING lost")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatal("ORDER BY lost")
	}
	if q.Items[1].Alias != "cnt" {
		t.Fatal("alias lost")
	}
}

func TestSelectLeftJoinAndDerived(t *testing.T) {
	src := `SELECT q.a FROM (SELECT a, b FROM t) q LEFT OUTER JOIN u ON q.a = u.a`
	q := parseOneStmt(t, src).(*ast.QueryStmt).Query
	j := q.From[0].(*ast.Join)
	if j.Kind != ast.JoinLeft {
		t.Fatal("LEFT JOIN lost")
	}
	if _, ok := j.L.(*ast.SubqueryRef); !ok {
		t.Fatalf("derived table lost: %T", j.L)
	}
}

func TestSelectCTEAndUnion(t *testing.T) {
	src := `WITH cte(i) AS (SELECT 0 AS i UNION ALL SELECT i + 1 FROM cte WHERE i < 100)
	        SELECT * FROM cte`
	q := parseOneStmt(t, src).(*ast.QueryStmt).Query
	if len(q.With) != 1 || q.With[0].Name != "cte" || len(q.With[0].Cols) != 1 {
		t.Fatalf("CTE parse: %+v", q.With)
	}
	if q.With[0].Query.Union == nil {
		t.Fatal("UNION ALL in CTE lost")
	}
}

func TestOrderEnforcedOption(t *testing.T) {
	q := parseOneStmt(t, "SELECT a FROM t OPTION (ORDER ENFORCED)").(*ast.QueryStmt).Query
	if !q.OrderEnforced {
		t.Fatal("OPTION (ORDER ENFORCED) lost")
	}
}

func TestMinCostSuppUDF(t *testing.T) {
	// The paper's Figure 1 UDF, verbatim modulo dialect details.
	src := `
create function minCostSupp(@pkey int, @lb int = -1) returns char(25) as
begin
  declare @pCost decimal(15,2);
  declare @sName char(25);
  declare @minCost decimal(15,2) = 100000;
  declare @suppName char(25);
  if (@lb = -1)
    set @lb = getLowerBound(@pkey);
  declare c1 cursor for
    select ps_supplycost, s_name from partsupp, supplier
    where ps_partkey = @pkey and ps_suppkey = s_suppkey;
  open c1;
  fetch next from c1 into @pCost, @sName;
  while @@FETCH_STATUS = 0
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
	f := parseOneStmt(t, src).(*ast.CreateFunction)
	if f.Name != "mincostsupp" {
		t.Fatalf("name = %q", f.Name)
	}
	if len(f.Params) != 2 || f.Params[1].Default == nil {
		t.Fatalf("params = %+v", f.Params)
	}
	if f.Returns.String() != "CHAR(25)" {
		t.Fatalf("returns = %v", f.Returns)
	}
	var cursors, fetches, whiles int
	ast.WalkStmt(f.Body, func(s ast.Stmt) bool {
		switch s.(type) {
		case *ast.DeclareCursor:
			cursors++
		case *ast.FetchStmt:
			fetches++
		case *ast.WhileStmt:
			whiles++
		}
		return true
	})
	if cursors != 1 || fetches != 2 || whiles != 1 {
		t.Fatalf("cursors=%d fetches=%d whiles=%d", cursors, fetches, whiles)
	}
}

func TestCreateAggregate(t *testing.T) {
	src := `
create aggregate MinCostSuppAgg(@pCost float, @sName char(25), @p_minCost float, @p_lb int) returns char(25) as
begin
  fields (@minCost float, @lb int, @suppName char(25), @isInitialized bit);
  init begin
    set @isInitialized = false;
  end
  accumulate begin
    if @isInitialized = false
    begin
      set @minCost = @p_minCost;
      set @lb = @p_lb;
      set @isInitialized = true;
    end
    if (@pCost < @minCost and @pCost >= @lb)
    begin
      set @minCost = @pCost;
      set @suppName = @sName;
    end
  end
  terminate begin
    return @suppName;
  end
end`
	agg := parseOneStmt(t, src).(*ast.CreateAggregate)
	if agg.Name != "mincostsuppagg" || len(agg.Params) != 4 || len(agg.Fields) != 4 {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.Init == nil || agg.Accum == nil || agg.Terminate == nil {
		t.Fatal("missing method blocks")
	}
}

func TestProceduralStatements(t *testing.T) {
	src := `
create procedure p(@n int) as
begin
  declare @t table (k int, v float);
  declare @i int = 0, @sum float = 0;
  while @i < @n
  begin
    insert into @t (k, v) values (@i, @i * 2.0);
    set @i = @i + 1;
    if @i % 2 = 0 continue;
    if @i > 100 break;
  end
  begin try
    update @t set v = v + 1 where k > 2;
    delete from @t where k = 0;
  end try
  begin catch
    print 'error';
  end catch
  select count(*) from @t;
end`
	proc := parseOneStmt(t, src).(*ast.CreateProcedure)
	var haveTable, haveTry, haveBreak, haveContinue, haveUpdate, haveDelete bool
	ast.WalkStmt(proc.Body, func(s ast.Stmt) bool {
		switch s.(type) {
		case *ast.DeclareTable:
			haveTable = true
		case *ast.TryCatch:
			haveTry = true
		case *ast.BreakStmt:
			haveBreak = true
		case *ast.ContinueStmt:
			haveContinue = true
		case *ast.UpdateStmt:
			haveUpdate = true
		case *ast.DeleteStmt:
			haveDelete = true
		}
		return true
	})
	if !haveTable || !haveTry || !haveBreak || !haveContinue || !haveUpdate || !haveDelete {
		t.Fatalf("missing constructs: table=%v try=%v break=%v continue=%v update=%v delete=%v",
			haveTable, haveTry, haveBreak, haveContinue, haveUpdate, haveDelete)
	}
}

func TestForLoop(t *testing.T) {
	src := `for (@i = 0; @i <= 100; @i = @i + 1) begin set @s = @s + @i; end`
	f := parseOneStmt(t, src).(*ast.ForStmt)
	if f.InitVar != "@i" || f.PostVar != "@i" || f.Cond == nil {
		t.Fatalf("for = %+v", f)
	}
}

func TestDDLAndDML(t *testing.T) {
	stmts, err := Parse(`
create table part (p_partkey int, p_name varchar(55));
create index idx_pk on part(p_partkey);
insert into part values (1, 'green widget'), (2, 'red widget');
insert into part (p_partkey, p_name) select p_partkey, p_name from part;
GO
exec myproc 1, 'x';
set (@a, @b) = (select agg(x) from t);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 6 {
		t.Fatalf("got %d statements", len(stmts))
	}
	ins := stmts[2].(*ast.InsertStmt)
	if len(ins.Rows) != 2 {
		t.Fatalf("multi-row VALUES lost: %d", len(ins.Rows))
	}
	set := stmts[5].(*ast.SetStmt)
	if len(set.Targets) != 2 {
		t.Fatalf("tuple SET targets = %v", set.Targets)
	}
}

// TestCreateIndexUsingIgnored: there is one index kind, so a USING clause
// still parses, changes nothing, and does not print back.
func TestCreateIndexUsingIgnored(t *testing.T) {
	want := &ast.CreateIndex{Name: "i", Table: "t", Column: "k"}
	for _, src := range []string{
		"create index i on t(k)",
		"create index i on t(k) using hash",
		"create index i on t(k) using ordered",
	} {
		got, ok := parseOneStmt(t, src).(*ast.CreateIndex)
		if !ok || *got != *want {
			t.Fatalf("%s: parsed %#v, want %#v", src, got, want)
		}
		if s := ast.Format(got); strings.Contains(strings.ToLower(s), "using") {
			t.Fatalf("%s: printed %q", src, s)
		}
	}
	if _, err := Parse("create index i on t(k) using btree"); err == nil {
		t.Fatal("USING BTREE parsed")
	}
}

func TestParamPlaceholders(t *testing.T) {
	p, err := New("select roi from inv where id = ? and start_date >= ?")
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.ParseSelect()
	if err != nil {
		t.Fatal(err)
	}
	var idxs []int
	ast.WalkSelectExprs(q, func(e ast.Expr) bool {
		if pr, ok := e.(*ast.ParamRef); ok {
			idxs = append(idxs, pr.Index)
		}
		return true
	})
	if len(idxs) != 2 || idxs[0] != 0 || idxs[1] != 1 {
		t.Fatalf("param indexes = %v", idxs)
	}
}

func TestComments(t *testing.T) {
	src := `-- line comment
	select a /* block
	comment */ from t -- trailing`
	q := parseOneStmt(t, src).(*ast.QueryStmt).Query
	if len(q.Items) != 1 {
		t.Fatal("comments broke parse")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"select from",                      // missing items
		"select a from (select b from t)",  // derived table missing alias
		"set x = 1",                        // SET without variable
		"declare @x",                       // missing type
		"fetch next from c into x",         // non-variable in INTO
		"create table t",                   // missing columns
		"'unterminated",                    // lexer error
		"select a from t where a = $",      // bad char
		"begin select 1",                   // unterminated block
		"case when 1 then 2",               // CASE without END (as expr stmt is invalid anyway)
		"create aggregate a() returns int", // missing AS
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestSetTakesOnlyVariables pins what the removed session option now gets:
// SET has no option form, so a bare identifier target is a parse error.
func TestSetTakesOnlyVariables(t *testing.T) {
	_, err := Parse("SET MAXDOP = 4")
	const want = "parser: line 1: expected variable after SET"
	if err == nil || err.Error() != want {
		t.Fatalf("Parse(SET MAXDOP = 4) error = %v, want %q", err, want)
	}
}

func TestPrintRoundtrip(t *testing.T) {
	// Format output must re-parse to an identical rendering (fixpoint).
	sources := []string{
		`create function f(@a int, @b int = -1) returns float as
		 begin
		   declare @x float = 0;
		   declare c cursor for select v from t where k = @a order by v desc;
		   open c;
		   fetch next from c into @x;
		   while @@fetch_status = 0
		   begin
		     set @b = @b + @x;
		     fetch next from c into @x;
		   end
		   close c;
		   deallocate c;
		   return @b;
		 end`,
		`select a, count(*) as c from t where a > 0 group by a having count(*) > 1 order by c desc`,
		`with w(i) as (select 1 as i union all select i + 1 from w where i < 5) select * from w option (order enforced)`,
	}
	for _, src := range sources {
		stmts, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		printed := ast.FormatProgram(stmts)
		stmts2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, printed)
		}
		printed2 := ast.FormatProgram(stmts2)
		if printed != printed2 {
			t.Errorf("print fixpoint failed:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("select from nothing valid ???")
}

func TestKeywordCaseInsensitive(t *testing.T) {
	for _, src := range []string{"SELECT a FROM t", "select a from t", "SeLeCt a FrOm t"} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestLexerUnterminatedBlockComment(t *testing.T) {
	// Unterminated block comments consume to EOF without panicking.
	if _, err := Parse("select 1 /* never closed"); err != nil && !strings.Contains(err.Error(), "") {
		t.Fatal(err)
	}
}
