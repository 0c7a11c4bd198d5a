package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
)

// nestedAccessDB makes r(k int, v int) with an index on k (k unique in
// [0, 200)), t(a int) holding eight keys of r and two that miss it, and
// s(a int, b int) with an index on a: the same column name as t.a.
func nestedAccessDB(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	var b strings.Builder
	b.WriteString(`
create table r (k int, v int);
create index r_k on r(k);
create table t (a int);
create table s (a int, b int);
create index s_a on s(a);
GO
create function rv(@x int) returns int as
begin
  return (select v from r where k = @x);
end
GO
`)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "insert into r values (%d, %d);\n", i, (i*7)%13)
		fmt.Fprintf(&b, "insert into s values (%d, %d);\n", i%20, i)
	}
	for _, a := range []int{3, 17, 250, 40, 17, 99, 5, -1, 120, 64} {
		fmt.Fprintf(&b, "insert into t values (%d);\n", a)
	}
	if _, err := interp.RunScript(eng.NewSession(), parser.MustParse(b.String())); err != nil {
		t.Fatal(err)
	}
	return eng
}

// runNested runs a batch and renders the rows of its last result set in
// emission order, with the index seeks the batch made.
func runNested(t *testing.T, sess *engine.Session, batch string) (string, int64) {
	t.Helper()
	seeks := sess.Stats.IndexSeeks.Load()
	res, err := interp.RunScript(sess, parser.MustParse(batch))
	if err != nil {
		t.Fatalf("%s: %v", batch, err)
	}
	if len(res) == 0 {
		t.Fatalf("%s: no result set", batch)
	}
	var rows []string
	for _, r := range res[len(res)-1].Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		rows = append(rows, strings.Join(cells, "|"))
	}
	return strings.Join(rows, ";"), sess.Stats.IndexSeeks.Load() - seeks
}

// TestNestedBodiesChooseAccess: a query body nested in another statement
// (a correlated subquery, an EXISTS, a CTE, a procedural SET, an inlined
// UDF) is planned by choose_access_path like a root query: it seeks the
// index with the rule on, scans with the rule off, and returns the same
// rows in the same order either way. A column of the enclosing query keys
// the seek, though it has the scanned column's name.
func TestNestedBodiesChooseAccess(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch string
		// disable is turned off in both sessions: decorrelation would
		// answer a correlated count(*) with a join instead of a nested body.
		disable plan.RuleSet
		seeks   int64 // with the rule on
	}{
		{name: "correlated scalar subquery", batch: "select a, (select v from r where k = t.a) from t", seeks: 10},
		{name: "exists", batch: "select a from t where exists (select 1 from r where k = t.a)", seeks: 10},
		{name: "not exists", batch: "select a from t where not exists (select 1 from r where k = t.a)", seeks: 10},
		{name: "cte body", batch: "with c as (select k, v from r where k = 17) select * from c", seeks: 1},
		{name: "cte range body", batch: "with c as (select k, v from r where k between 40 and 44) select * from c", seeks: 1},
		{name: "procedural set", batch: "declare @v int = 17; declare @c int; set @c = (select v from r where k = @v); select @c", seeks: 1},
		{name: "inlined udf", batch: "select a, rv(a) from t", seeks: 10},
		{name: "name collision", batch: "select a, (select count(*) from s where s.a = t.a) from t",
			disable: plan.RuleDecorrelate, seeks: 10},
		{name: "name collision, sides swapped", batch: "select a, (select count(*) from s where t.a = s.a) from t",
			disable: plan.RuleDecorrelate, seeks: 10},
		// Unqualified, a names the innermost table's column: s.a.
		{name: "name collision, inner column unqualified", batch: "select a, (select count(*) from s where a = t.a) from t",
			disable: plan.RuleDecorrelate, seeks: 10},
		{name: "inner column on both sides", batch: "select a, (select count(*) from s where s.a = a) from t",
			disable: plan.RuleDecorrelate},
	} {
		eng := nestedAccessDB(t)
		on, off := eng.NewSession(), eng.NewSession()
		on.Opts.DisableRules = tc.disable
		off.Opts.DisableRules = tc.disable | plan.RuleChooseAccessPath
		onRows, onSeeks := runNested(t, on, tc.batch)
		offRows, offSeeks := runNested(t, off, tc.batch)
		if onRows != offRows {
			t.Errorf("%s: rows %s with choose_access_path, %s without", tc.name, onRows, offRows)
		}
		if onSeeks != tc.seeks || offSeeks != 0 {
			t.Errorf("%s: %d seeks with choose_access_path, %d without; want %d and 0",
				tc.name, onSeeks, offSeeks, tc.seeks)
		}
	}
}

// TestJoinChainHashJoins: an equi-join whose left input is itself a join
// resolves the qualified columns of that input, so each join is a hash
// join and the last table is read once, not once per outer row, with the
// rows in the order the nested loop returned them.
func TestJoinChainHashJoins(t *testing.T) {
	sess := newDB(t, `
create table t1 (a int, x int);
create table t2 (a int, y int);
create table t3 (a int, z int);
insert into t1 values (1, 10), (2, 20), (3, 30);
insert into t2 values (2, 200), (1, 100), (3, 300), (2, 201);
insert into t3 values (3, 3000), (2, 2000), (2, 2001), (4, 4000);
`)
	for _, tc := range []struct {
		sql  string
		rows string
	}{
		{"select t1.x, t2.y, t3.z from t1 join t2 on t1.a = t2.a join t3 on t2.a = t3.a",
			"20|200|2000;20|200|2001;20|201|2000;20|201|2001;30|300|3000"},
		{"select t1.x, t2.y, t3.z from t1 join t2 on t1.a = t2.a join t3 on t1.a = t3.a",
			"20|200|2000;20|200|2001;20|201|2000;20|201|2001;30|300|3000"},
		{"select t1.x, t2.y, t3.z from t1 join t2 on t1.a = t2.a left join t3 on t3.a = t2.a",
			"10|100|NULL;20|200|2000;20|200|2001;20|201|2000;20|201|2001;30|300|3000"},
	} {
		q := parser.MustParse(tc.sql)[0].(*ast.QueryStmt).Query
		lines, err := sess.ExplainQuery(q, true, sess.Ctx(nil, nil))
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		text := strings.Join(lines, "\n")
		if strings.Contains(text, "NLJoin") || strings.Count(text, "HashJoin(") != 2 {
			t.Errorf("%s: want two hash joins:\n%s", tc.sql, text)
		}
		for _, l := range lines {
			if strings.Contains(l, "Scan(t3)") && !strings.Contains(l, " reads=4") {
				t.Errorf("%s: t3 read other than 4 times: %s", tc.sql, l)
			}
		}
		if got, _ := runNested(t, sess, tc.sql); got != tc.rows {
			t.Errorf("%s: rows %s, want %s", tc.sql, got, tc.rows)
		}
	}
}

// TestCommaListJoinUnitColumns: in a comma list, a WHERE conjunct resolves
// a qualified column of an explicit join unit through the join's tables,
// and the columns keep their qualifiers when the list is reordered; rows
// and their order do not depend on the rules.
func TestCommaListJoinUnitColumns(t *testing.T) {
	sess := newDB(t, `
create table t0 (a int, w int);
create table t1 (a int, x int);
create table t2 (a int, y int);
insert into t0 values (1, 7), (2, 8);
insert into t1 values (1, 10), (2, 5), (3, 5);
insert into t2 values (2, 200), (1, 100), (3, 300);
`)
	for _, tc := range []struct{ sql, rows string }{
		{"select t1.x, t0.a, t2.y from t0, t1 join t2 on t1.a = t2.a where t1.x = 5",
			"5|1|200;5|1|300;5|2|200;5|2|300"},
		{"select t1.x, t0.a, t2.y from t0, t1 join t2 on t1.a = t2.a where t1.a = t0.a", "10|1|100;5|2|200"},
		// t0 starts the join order, so the output columns are reordered.
		{"select t1.x, t0.w, t2.y from t1 join t2 on t1.a = t2.a, t0 where t0.w = 8 and t1.a = t0.a", "5|8|200"},
	} {
		for _, disable := range []plan.RuleSet{0, plan.RuleAll} {
			sess.Opts.DisableRules = disable
			if got, _ := runNested(t, sess, tc.sql); got != tc.rows {
				t.Errorf("%s (rules disabled %#x): rows %s, want %s", tc.sql, disable, got, tc.rows)
			}
		}
	}
}

// TestCompiledRoutineFollowsSessionRules: a query inside a compiled UDF
// body is planned with the calling session's rules. The WHILE loop keeps
// the UDF from being inlined, so its body runs compiled and seeks r twice
// per call with choose_access_path on and never with it off, whichever
// session compiled the body first.
func TestCompiledRoutineFollowsSessionRules(t *testing.T) {
	eng := nestedAccessDB(t)
	if _, err := interp.RunScript(eng.NewSession(), parser.MustParse(`
create function loopv(@x int) returns int as
begin
  declare @c int = 0;
  declare @i int = 0;
  while @i < 2
  begin
    set @c = @c + (select v from r where k = @x);
    set @i = @i + 1;
  end
  return @c;
end`)); err != nil {
		t.Fatal(err)
	}
	on, off := eng.NewSession(), eng.NewSession()
	off.Opts.DisableRules = plan.RuleChooseAccessPath
	for _, step := range []struct {
		sess  *engine.Session
		seeks int64
	}{{on, 2}, {off, 0}, {on, 2}, {off, 0}} {
		rows, seeks := runNested(t, step.sess, "select loopv(17)")
		if rows != "4" || seeks != step.seeks {
			t.Errorf("rules %b off: loopv(17) = %s with %d seeks, want 4 with %d",
				step.sess.Opts.DisableRules, rows, seeks, step.seeks)
		}
	}
}
