package engine_test

import (
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
)

// newDB builds an engine+session with the interpreter installed and the
// given setup script executed.
func newDB(t *testing.T, setup string) *engine.Session {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	sess := eng.NewSession()
	if setup != "" {
		if _, err := interp.RunScript(sess, parser.MustParse(setup)); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	return sess
}

// query runs a single SELECT and returns its rows.
func query(t *testing.T, sess *engine.Session, sql string) []exec.Row {
	t.Helper()
	stmts := parser.MustParse(sql)
	q, ok := stmts[0].(*ast.QueryStmt)
	if !ok || len(stmts) != 1 {
		t.Fatalf("not a single query: %s", sql)
	}
	_, rows, err := sess.Query(q.Query, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

const sampleDB = `
create table part (p_partkey int, p_name varchar(55), p_retail float);
create index pk_part on part(p_partkey);
create table partsupp (ps_partkey int, ps_suppkey int, ps_supplycost decimal(15,2));
create index idx_ps on partsupp(ps_partkey);
create table supplier (s_suppkey int, s_name char(25), s_nation varchar(25));
create index pk_supp on supplier(s_suppkey);
insert into part values (1, 'widget red', 10.0), (2, 'widget blue', 20.0), (3, 'gizmo green', 30.0), (4, 'lonely part', 40.0);
insert into supplier values (10, 'acme', 'FRANCE'), (11, 'bolts inc', 'GERMANY'), (12, 'cheapco', 'FRANCE');
insert into partsupp values
 (1, 10, 5.0), (1, 11, 3.5), (1, 12, 9.0),
 (2, 10, 7.0), (2, 12, 2.0),
 (3, 11, 8.0);
`

func TestBasicSelect(t *testing.T) {
	sess := newDB(t, sampleDB)
	rows := query(t, sess, "select p_partkey, p_name from part where p_retail > 15 order by p_partkey")
	if len(rows) != 3 || rows[0][0].Int() != 2 || rows[2][1].Str() != "lonely part" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestWhereLikeAndBetween(t *testing.T) {
	sess := newDB(t, sampleDB)
	rows := query(t, sess, "select count(*) from part where p_name like 'widget%'")
	if rows[0][0].Int() != 2 {
		t.Fatalf("like count = %v", rows)
	}
	rows = query(t, sess, "select count(*) from part where p_retail between 15 and 35")
	if rows[0][0].Int() != 2 {
		t.Fatalf("between count = %v", rows)
	}
}

func TestCommaJoinWithIndexSeek(t *testing.T) {
	sess := newDB(t, sampleDB)
	// The Figure 1 cursor query shape.
	rows := query(t, sess, `select ps_supplycost, s_name from partsupp, supplier
	                        where ps_partkey = 1 and ps_suppkey = s_suppkey order by ps_supplycost`)
	if len(rows) != 3 || rows[0][0].Float() != 3.5 || strings.TrimSpace(rows[0][1].Str()) != "bolts inc" {
		t.Fatalf("rows = %v", rows)
	}
	// The plan must use the partsupp index for the constant predicate.
	p, err := sess.PlanQuery(parser.MustParse(`select ps_supplycost from partsupp where ps_partkey = 1`)[0].(*ast.QueryStmt).Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Explain.Contains("IndexSeek(partsupp.ps_partkey)") {
		t.Fatalf("expected index seek, plan:\n%s", p.Explain)
	}
}

func TestJoinOrderIndependence(t *testing.T) {
	sess := newDB(t, sampleDB)
	a := query(t, sess, `select p_name, s_name from part, partsupp, supplier
	                     where p_partkey = ps_partkey and ps_suppkey = s_suppkey order by p_name, s_name`)
	b := query(t, sess, `select p_name, s_name from supplier, part, partsupp
	                     where p_partkey = ps_partkey and ps_suppkey = s_suppkey order by p_name, s_name`)
	if len(a) != 6 || len(a) != len(b) {
		t.Fatalf("join sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0].Str() != b[i][0].Str() || a[i][1].Str() != b[i][1].Str() {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExplicitJoins(t *testing.T) {
	sess := newDB(t, sampleDB)
	rows := query(t, sess, `select p.p_partkey, ps.ps_supplycost
	                        from part p join partsupp ps on p.p_partkey = ps.ps_partkey
	                        order by p.p_partkey, ps.ps_supplycost`)
	if len(rows) != 6 {
		t.Fatalf("inner join = %v", rows)
	}
	rows = query(t, sess, `select p.p_partkey, ps.ps_suppkey
	                       from part p left join partsupp ps on p.p_partkey = ps.ps_partkey
	                       order by p.p_partkey`)
	if len(rows) != 7 {
		t.Fatalf("left join should keep the lonely part: %v", rows)
	}
	last := rows[len(rows)-1]
	if last[0].Int() != 4 || !last[1].IsNull() {
		t.Fatalf("lonely part row = %v", last)
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	sess := newDB(t, sampleDB)
	rows := query(t, sess, `select ps_partkey, count(*) as n, min(ps_supplycost) as lo
	                        from partsupp group by ps_partkey having count(*) > 1 order by n desc, ps_partkey`)
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 3 || rows[0][2].Float() != 3.5 {
		t.Fatalf("group = %v", rows[0])
	}
}

func TestScalarSubqueryAndExists(t *testing.T) {
	sess := newDB(t, sampleDB)
	rows := query(t, sess, `select p_partkey,
	                          (select min(ps_supplycost) from partsupp where ps_partkey = p_partkey) as mc
	                        from part order by p_partkey`)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1].Float() != 3.5 || !rows[3][1].IsNull() {
		t.Fatalf("correlated subquery = %v", rows)
	}
	rows = query(t, sess, `select p_partkey from part
	                       where exists (select * from partsupp where ps_partkey = p_partkey)
	                       order by p_partkey`)
	if len(rows) != 3 {
		t.Fatalf("exists rows = %v", rows)
	}
	rows = query(t, sess, `select p_partkey from part
	                       where p_partkey in (select ps_partkey from partsupp where ps_supplycost < 4)
	                       order by p_partkey`)
	if len(rows) != 2 {
		t.Fatalf("in-subquery rows = %v", rows)
	}
}

func TestDecorrelationPlanAndResults(t *testing.T) {
	q := `select p_partkey,
	        (select count(*) from partsupp where ps_partkey = p_partkey) as n
	      from part order by p_partkey`
	sessOn := newDB(t, sampleDB)
	sessOff := newDB(t, sampleDB)
	sessOff.Opts.DisableRules = plan.RuleDecorrelate

	pOn, err := sessOn.PlanQuery(parser.MustParse(q)[0].(*ast.QueryStmt).Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pOn.Explain.Contains("HashJoin") || !pOn.Explain.Contains("HashAgg") {
		t.Fatalf("decorrelated plan expected, got:\n%s", pOn.Explain)
	}
	on := query(t, sessOn, q)
	off := query(t, sessOff, q)
	if len(on) != 4 || len(off) != 4 {
		t.Fatalf("row counts: %d vs %d", len(on), len(off))
	}
	for i := range on {
		for j := range on[i] {
			if !sqltypes.GroupEqual(on[i][j], off[i][j]) {
				t.Fatalf("row %d differs: %v vs %v", i, on[i], off[i])
			}
		}
	}
	// COUNT fixup: the lonely part must report 0, not NULL.
	if on[3][1].Int() != 0 {
		t.Fatalf("COUNT over empty group = %v, want 0", on[3][1])
	}
}

func TestDistinctTopUnion(t *testing.T) {
	sess := newDB(t, sampleDB)
	rows := query(t, sess, "select distinct ps_partkey from partsupp order by ps_partkey")
	if len(rows) != 3 {
		t.Fatalf("distinct = %v", rows)
	}
	rows = query(t, sess, "select top 2 p_partkey from part order by p_retail desc")
	if len(rows) != 2 || rows[0][0].Int() != 4 {
		t.Fatalf("top = %v", rows)
	}
	rows = query(t, sess, "select p_partkey from part where p_partkey = 1 union all select p_partkey from part where p_partkey > 2 order by p_partkey")
	if len(rows) != 3 || rows[2][0].Int() != 4 {
		t.Fatalf("union = %v", rows)
	}
}

// TestUnionAllBranchTop: a TOP belongs to the query specification it is
// written in, so it limits its own UNION ALL branch; only the trailing
// ORDER BY applies to the whole union.
func TestUnionAllBranchTop(t *testing.T) {
	sess := newDB(t, `
create table t (a int);
create table u (b int);
insert into t values (1), (2);
insert into u values (10), (20), (30);
`)
	cases := []struct {
		sql  string
		want string
	}{
		{"select a from t union all select top 1 b from u", "1 2 10"},
		{"select top 1 a from t union all select b from u", "1 10 20 30"},
		{"select top 1 a from t union all select top 2 b from u order by a desc", "20 10 1"},
	}
	for _, rules := range []plan.RuleSet{0, plan.RuleAll} {
		sess.Opts.DisableRules = rules
		for _, c := range cases {
			var got []string
			for _, r := range query(t, sess, c.sql) {
				got = append(got, r[0].String())
			}
			if g := strings.Join(got, " "); g != c.want {
				t.Errorf("%s (DisableRules=%#x): got %s, want %s", c.sql, uint32(rules), g, c.want)
			}
		}
	}
}

// TestCompileErrorsFromBuild pins the compile errors the logical IR build
// reports, with the rewrite rules on and with all of them off.
func TestCompileErrorsFromBuild(t *testing.T) {
	sess := newDB(t, "create table t (a int);")
	cases := []struct{ sql, want string }{
		{"select sum(sum(a)) from t", "plan: nested aggregate in arguments of sum"},
		{"select a from t having a > 1", "plan: HAVING requires aggregation"},
	}
	for _, rules := range []plan.RuleSet{0, plan.RuleAll} {
		sess.Opts.DisableRules = rules
		for _, c := range cases {
			q := parser.MustParse(c.sql)[0].(*ast.QueryStmt).Query
			_, _, err := sess.Query(q, sess.Ctx(nil, nil))
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (DisableRules=%#x): err %v, want %q", c.sql, uint32(rules), err, c.want)
			}
		}
	}
}

// TestFoldedAggregateStillAggregates: a block is aggregated because of the
// calls it was written with, so folding away the only aggregate call (the
// dead CASE arm) must not turn one group into one row per input row.
func TestFoldedAggregateStillAggregates(t *testing.T) {
	sess := newDB(t, "create table t (a int);\ninsert into t values (1), (2), (3);")
	for _, rules := range []plan.RuleSet{0, plan.RuleAll} {
		sess.Opts.DisableRules = rules
		rows := query(t, sess, "select case when 1 = 0 then count(*) else 5 end from t")
		if len(rows) != 1 || rows[0][0].Int() != 5 {
			t.Errorf("DisableRules=%#x: rows %v, want one row of 5", uint32(rules), rows)
		}
	}
}

// TestUnaliasedAggregateColumnNames: an unaliased computed item is named
// col<N> by its output position, aggregate or not, so an outer block can
// reference a derived table's aggregate by that name.
func TestUnaliasedAggregateColumnNames(t *testing.T) {
	sess := newDB(t, "create table t (a int);\ninsert into t values (1), (2), (3);")
	q := parser.MustParse("select count(*), a + 1, sum(a) as s from t group by a + 1")[0].(*ast.QueryStmt).Query
	cols, _, err := sess.Query(q, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cols, " "); got != "col1 col2 s" {
		t.Errorf("columns %q, want %q", got, "col1 col2 s")
	}
	rows := query(t, sess, "select d.col1 from (select count(*) from t) d")
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Errorf("derived aggregate by name: rows %v, want [[3]]", rows)
	}
}

func TestRecursiveCTEQuery(t *testing.T) {
	sess := newDB(t, "")
	rows := query(t, sess, `with seq(i) as (select 0 as i union all select i + 1 from seq where i < 9)
	                        select count(*), sum(i) from seq`)
	if rows[0][0].Int() != 10 || rows[0][1].Int() != 45 {
		t.Fatalf("recursive cte = %v", rows)
	}
}

func TestUDFFromQuery(t *testing.T) {
	sess := newDB(t, sampleDB+`
create function mincost(@pkey int) returns float as
begin
  declare @m float;
  set @m = (select min(ps_supplycost) from partsupp where ps_partkey = @pkey);
  return @m;
end`)
	rows := query(t, sess, "select p_partkey, mincost(p_partkey) from part order by p_partkey")
	if rows[0][1].Float() != 3.5 || rows[1][1].Float() != 2.0 || !rows[3][1].IsNull() {
		t.Fatalf("udf rows = %v", rows)
	}
}

func TestCursorLoopUDF(t *testing.T) {
	// Figure 1, almost verbatim.
	sess := newDB(t, sampleDB+`
create function getLowerBound(@pkey int) returns int as
begin
  return 3;
end
GO
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
end`)
	v, err := interp.CallFunctionByName(sess, "minCostSupp", sqltypes.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound 3 excludes nothing for part 1 (min cost 3.5 >= 3).
	if strings.TrimSpace(v.Str()) != "bolts inc" {
		t.Fatalf("minCostSupp(1) = %q", v.Str())
	}
	// With explicit lower bound 4, cost 3.5 is excluded; min becomes 5.0.
	v, err = interp.CallFunctionByName(sess, "minCostSupp", sqltypes.NewInt(1), sqltypes.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(v.Str()) != "acme" {
		t.Fatalf("minCostSupp(1, 4) = %q", v.Str())
	}
	// Cursor materialization must be visible in worktable stats.
	if sess.Stats.WorktableWrites.Load() == 0 || sess.Stats.WorktableReads.Load() == 0 {
		t.Fatal("cursor loop should have touched the worktable")
	}
	// Empty cursor: part 4 has no suppliers, result stays NULL.
	v, err = interp.CallFunctionByName(sess, "minCostSupp", sqltypes.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Fatalf("minCostSupp(4) = %v, want NULL", v)
	}
}

func TestHandWrittenAggregateMatchesCursorLoop(t *testing.T) {
	// Figure 5's generated aggregate, registered by hand, driving the
	// Figure 7 rewritten UDF: must agree with the cursor loop for all parts.
	sess := newDB(t, sampleDB+`
create function getLowerBound(@pkey int) returns int as
begin
  return 3;
end
GO
create aggregate MinCostSuppAgg(@pCost decimal(15,2), @sName char(25), @p_minCost decimal(15,2), @p_lb int) returns char(25) as
begin
  fields (@minCost decimal(15,2), @lb int, @suppName char(25), @isInitialized bit);
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
end
GO
create function minCostSupp2(@pkey int, @lb int = -1) returns char(25) as
begin
  declare @minCost decimal(15,2) = 100000;
  declare @suppName char(25);
  if (@lb = -1)
    set @lb = getLowerBound(@pkey);
  set @suppName = (
    select MinCostSuppAgg(Q.ps_supplycost, Q.s_name, @minCost, @lb)
    from (select ps_supplycost, s_name
          from partsupp, supplier
          where ps_partkey = @pkey and ps_suppkey = s_suppkey) Q );
  return @suppName;
end`)
	for pkey := int64(1); pkey <= 4; pkey++ {
		v, err := interp.CallFunctionByName(sess, "minCostSupp2", sqltypes.NewInt(pkey))
		if err != nil {
			t.Fatalf("part %d: %v", pkey, err)
		}
		// Lower bound 3 (from getLowerBound) excludes part 2's 2.0 offer.
		want := map[int64]string{1: "bolts inc", 2: "acme", 3: "bolts inc"}[pkey]
		got := strings.TrimSpace(v.Str())
		if pkey == 4 {
			if !v.IsNull() {
				t.Fatalf("part 4 = %v, want NULL", v)
			}
			continue
		}
		if got != want {
			t.Fatalf("part %d = %q, want %q", pkey, got, want)
		}
	}
}

func TestOrderEnforcedStreamAgg(t *testing.T) {
	sess := newDB(t, `
create table seqvals (k int, v varchar(10));
insert into seqvals values (3, 'c'), (1, 'a'), (2, 'b');
GO
create aggregate ConcatAgg(@v varchar(10)) returns varchar(100) as
begin
  fields (@acc varchar(100), @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false
    begin
      set @acc = '';
      set @isInitialized = true;
    end
    set @acc = @acc || @v;
  end
  terminate begin return @acc; end
end`)
	// Re-register as order-sensitive (as Aggify does for ORDER BY loops).
	src, _ := sess.Eng.AggregateSource("concatagg")
	if err := sess.Eng.RegisterAggregate(src, true); err != nil {
		t.Fatal(err)
	}
	q := parser.MustParse(`select ConcatAgg(q.v) from (select v from seqvals order by k) q option (order enforced)`)[0].(*ast.QueryStmt).Query
	p, err := sess.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Explain.Contains("StreamAgg") {
		t.Fatalf("OrderEnforced must use StreamAgg:\n%s", p.Explain)
	}
	_, rows, err := sess.Query(q, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Str() != "abc" {
		t.Fatalf("ordered concat = %q, want abc", rows[0][0].Str())
	}
}

func TestProcedureWithTableVarAndTryCatch(t *testing.T) {
	sess := newDB(t, `
create table audit_log (msg varchar(100));
GO
create procedure doWork(@n int) as
begin
  declare @t table (k int, v int);
  declare @i int = 0;
  while @i < @n
  begin
    insert into @t values (@i, @i * @i);
    set @i = @i + 1;
  end
  update @t set v = v + 1 where k >= 2;
  delete from @t where k = 0;
  begin try
    declare @x int = 1 / 0;
    set @x = @x;
  end try
  begin catch
    insert into audit_log values ('caught division by zero');
  end catch
  insert into audit_log select 'sum=' || sum(v) from @t;
end`)
	if err := interp.CallProcedureByName(sess, "doWork", sqltypes.NewInt(4)); err != nil {
		t.Fatal(err)
	}
	rows := query(t, sess, "select msg from audit_log order by msg")
	if len(rows) != 2 {
		t.Fatalf("audit rows = %v", rows)
	}
	// k=1:1, k=2:5, k=3:10 => 16
	if rows[1][0].Str() != "sum=16" {
		t.Fatalf("audit = %v", rows)
	}
}

func TestBreakContinueAndForLoop(t *testing.T) {
	sess := newDB(t, `
create function sumEvensUpTo(@n int) returns int as
begin
  declare @s int = 0;
  declare @i int = 0;
  for (@i = 0; @i <= @n; @i = @i + 1)
  begin
    if @i % 2 = 1 continue;
    if @i > 100 break;
    set @s = @s + @i;
  end
  return @s;
end`)
	v, err := interp.CallFunctionByName(sess, "sumEvensUpTo", sqltypes.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 30 {
		t.Fatalf("sumEvensUpTo(10) = %v, want 30", v)
	}
	v, err = interp.CallFunctionByName(sess, "sumEvensUpTo", sqltypes.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 2550 { // 0+2+...+100
		t.Fatalf("sumEvensUpTo(1000) = %v, want 2550", v)
	}
}

func TestTempTables(t *testing.T) {
	sess := newDB(t, `
create table #scratch (k int, v int);
insert into #scratch values (1, 10), (2, 20);
`)
	rows := query(t, sess, "select sum(v) from #scratch")
	if rows[0][0].Int() != 30 {
		t.Fatalf("temp table sum = %v", rows)
	}
	if _, ok := sess.Eng.Table("#scratch"); ok {
		t.Fatal("temp table must not be a global table")
	}
}

func TestNestedCursorLoops(t *testing.T) {
	sess := newDB(t, sampleDB+`
create function totalCost() returns float as
begin
  declare @pk int;
  declare @total float = 0;
  declare @cost float;
  declare outerc cursor for select p_partkey from part;
  open outerc;
  fetch next from outerc into @pk;
  while @@fetch_status = 0
  begin
    declare innerc cursor for select ps_supplycost from partsupp where ps_partkey = @pk;
    open innerc;
    fetch next from innerc into @cost;
    while @@fetch_status = 0
    begin
      set @total = @total + @cost;
      fetch next from innerc into @cost;
    end
    close innerc;
    deallocate innerc;
    fetch next from outerc into @pk;
  end
  close outerc;
  deallocate outerc;
  return @total;
end`)
	v, err := interp.CallFunctionByName(sess, "totalCost")
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 34.5 {
		t.Fatalf("totalCost = %v, want 34.5", v)
	}
}

// Note: the inner loop's FETCH sets @@fetch_status; after the inner loop
// ends it is -1, which would also terminate the outer loop in real T-SQL
// unless the outer FETCH runs first — the function above fetches the outer
// cursor at the end of the body, mirroring the standard idiom.

func TestVariablesKeepValuesAtCursorEnd(t *testing.T) {
	sess := newDB(t, sampleDB+`
create function lastKey() returns int as
begin
  declare @k int = -1;
  declare c cursor for select p_partkey from part where p_partkey < 0;
  open c;
  fetch next from c into @k;
  close c;
  deallocate c;
  return @k;
end`)
	v, err := interp.CallFunctionByName(sess, "lastKey")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != -1 {
		t.Fatalf("FETCH past end must keep variable: %v", v)
	}
}

func TestDivisionByZeroSurfacesAsError(t *testing.T) {
	sess := newDB(t, `
create function boom() returns int as
begin
  return 1 / 0;
end`)
	if _, err := interp.CallFunctionByName(sess, "boom"); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestPrintAndExec(t *testing.T) {
	sess := newDB(t, `
create procedure greet(@name varchar(20)) as
begin
  print 'hello ' || @name;
end
GO
exec greet 'world';
`)
	prints := sess.Prints()
	if len(prints) != 1 || prints[0] != "hello world" {
		t.Fatalf("prints = %v", prints)
	}
}

func TestTupleSetFromAggregate(t *testing.T) {
	sess := newDB(t, sampleDB+`
create aggregate MinMaxAgg(@c float) returns tuple as
begin
  fields (@lo float, @hi float, @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false
    begin
      set @lo = @c; set @hi = @c; set @isInitialized = true;
    end
    if @c < @lo set @lo = @c;
    if @c > @hi set @hi = @c;
  end
  terminate begin return (select @lo, @hi); end
end
GO
create function spread(@pkey int) returns float as
begin
  declare @lo float;
  declare @hi float;
  set (@lo, @hi) = (select MinMaxAgg(ps_supplycost) from partsupp where ps_partkey = @pkey);
  return @hi - @lo;
end`)
	v, err := interp.CallFunctionByName(sess, "spread", sqltypes.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 5.5 {
		t.Fatalf("spread(1) = %v, want 5.5", v)
	}
	// Empty group: tuple of NULLs destructures to NULLs; @hi-@lo is NULL.
	v, err = interp.CallFunctionByName(sess, "spread", sqltypes.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Fatalf("spread(99) = %v, want NULL", v)
	}
}

func TestLogicalReadAccounting(t *testing.T) {
	sess := newDB(t, sampleDB)
	before := sess.Stats.Snapshot()
	query(t, sess, "select count(*) from partsupp")
	delta := sess.Stats.Snapshot().Sub(before)
	if delta.LogicalReads != 6 {
		t.Fatalf("scan of 6 rows charged %d reads", delta.LogicalReads)
	}
}

func TestDateLiteralsAndFunctions(t *testing.T) {
	sess := newDB(t, `
create table events (d date, what varchar(20));
insert into events values ('1995-03-15', 'ides'), ('1995-09-01', 'school'), ('1996-01-01', 'newyear');
`)
	rows := query(t, sess, "select what from events where d >= '1995-09-01' and d < date '1996-01-01'")
	if len(rows) != 1 || rows[0][0].Str() != "school" {
		t.Fatalf("date filter = %v", rows)
	}
	rows = query(t, sess, "select year(d), month(d) from events where what = 'ides'")
	if rows[0][0].Int() != 1995 || rows[0][1].Int() != 3 {
		t.Fatalf("date parts = %v", rows)
	}
}

func TestInterruptLongRun(t *testing.T) {
	sess := newDB(t, `create table big (k int);`)
	tab, _ := sess.Eng.Table("big")
	for i := int64(0); i < 10000; i++ {
		_ = tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i)})
	}
	ch := make(chan struct{})
	close(ch)
	sess.Interrupt = ch
	stmts := parser.MustParse("select count(*) from big b1, big b2")
	_, _, err := sess.Query(stmts[0].(*ast.QueryStmt).Query, sess.Ctx(nil, nil))
	if err != exec.ErrInterrupted {
		t.Fatalf("err = %v, want interrupted", err)
	}
}

func TestDDLErrors(t *testing.T) {
	sess := newDB(t, "create table t1 (a int);")
	if _, err := interp.RunScript(sess, parser.MustParse("create table t1 (a int);")); err == nil {
		t.Fatal("duplicate table should error")
	}
	if _, err := interp.RunScript(sess, parser.MustParse("create index i on missing(a);")); err == nil {
		t.Fatal("index on missing table should error")
	}
	if _, err := interp.RunScript(sess, parser.MustParse("create function abs(@x int) returns int as begin return @x; end")); err == nil {
		t.Fatal("shadowing a builtin function should error")
	}
}

func TestUnknownReferencesError(t *testing.T) {
	sess := newDB(t, sampleDB)
	for _, bad := range []string{
		"select nosuchcol from part",
		"select * from nosuchtable",
		"select nosuchfunc(p_partkey) from part",
		"select p_partkey from part group by p_name", // item not in GROUP BY
	} {
		stmts := parser.MustParse(bad)
		if _, _, err := sess.Query(stmts[0].(*ast.QueryStmt).Query, sess.Ctx(nil, nil)); err == nil {
			t.Errorf("query %q should fail", bad)
		}
	}
}
