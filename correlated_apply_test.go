package aggify_test

import (
	"strings"
	"sync"
	"testing"

	"aggify"
	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/tpch"
)

// loadAggifiedDriver builds a TPC-H engine with one workload query's UDFs
// registered as Aggify rewrote them, and returns the query's driver with
// its key window as two parameters: inline_udf runs each call as a
// correlated subquery over the generated aggregate.
func loadAggifiedDriver(t testing.TB, id, sql string) (*engine.Engine, *ast.Select) {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	if err := tpch.Load(eng, 0.002); err != nil {
		t.Fatal(err)
	}
	q, ok := tpch.QueryByID(id)
	if !ok {
		t.Fatalf("no workload query %s", id)
	}
	if _, err := interp.RunScript(eng.NewSession(), parser.MustParse(q.Setup)); err != nil {
		t.Fatal(err)
	}
	for _, name := range q.Funcs {
		def, _ := eng.Function(name)
		rewritten, res, err := core.TransformFunction(def, core.Options{})
		if err != nil {
			t.Fatalf("aggify %s: %v", name, err)
		}
		for _, lr := range res.Loops {
			if err := eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.RegisterFunction(rewritten); err != nil {
			t.Fatal(err)
		}
	}
	return eng, parser.MustParse(sql)[0].(*ast.QueryStmt).Query
}

// TestCorrelatedSubqueryAllocsPerOuterRow guards the apply form's per-row
// cost on the Q18-shaped driver (one inlined aggregate UDF call per outer
// row): each execution builds the subquery's operator tree, aggregate and
// aggregate machine once and re-opens them for every further outer row.
// Rebuilding them per row cost 41 allocations per outer row (TPC-H SF
// 0.002); the guard allows 21, about half of that.
func TestCorrelatedSubqueryAllocsPerOuterRow(t *testing.T) {
	eng, q := loadAggifiedDriver(t, "Q18", "select o_orderkey, sumQty(o_orderkey) from orders where o_orderkey between ? and ?")
	sess := eng.NewSession()
	run := func(keys int64) (rows int, allocs float64) {
		execute := func() {
			ctx := sess.Ctx(nil, nil)
			ctx.Params = []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(keys)}
			_, got, err := sess.Query(q, ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(got)
		}
		execute() // warm the plan cache
		return rows, testing.AllocsPerRun(20, execute)
	}
	n50, a50 := run(50)
	n100, a100 := run(100)
	if n100 <= n50 {
		t.Fatalf("key windows select %d and %d outer rows", n50, n100)
	}
	slope := (a100 - a50) / float64(n100-n50)
	t.Logf("%d outer rows: %.0f allocs; %d outer rows: %.0f allocs; %.1f allocs per outer row", n50, a50, n100, a100, slope)
	if slope > 21 {
		t.Errorf("%.1f allocations per outer row, want at most 21", slope)
	}
}

// TestCorrelatedSubquerySharedPlanConcurrentSessions runs one cached plan
// with a correlated subquery (the inlined, aggified Q18 driver) from 8
// sessions at once. The plan is shared; the subquery trees, aggregates and
// machines live on each execution's context, so every session must get the
// answer one session alone gets (run it under -race).
func TestCorrelatedSubquerySharedPlanConcurrentSessions(t *testing.T) {
	eng, q := loadAggifiedDriver(t, "Q18", "select o_orderkey, sumQty(o_orderkey) from orders where o_orderkey between ? and ?")
	const workers, window = 8, 40
	query := func(sess *engine.Session, lo int64) (string, error) {
		ctx := sess.Ctx(nil, nil)
		ctx.Params = []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(lo + window - 1)}
		_, rows, err := sess.Query(q, ctx)
		return renderRows(rows), err
	}
	alone := eng.NewSession()
	want := make([]string, workers)
	for w := range want {
		var err error
		if want[w], err = query(alone, int64(w*window/2+1)); err != nil {
			t.Fatal(err)
		}
	}
	alone.Close()
	misses := eng.PlanCacheStats().Misses
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := eng.NewSession()
			defer sess.Close()
			for i := 0; i < 20; i++ {
				k := (w + i) % workers
				got, err := query(sess, int64(k*window/2+1))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got != want[k] {
					t.Errorf("worker %d, window %d:\n got %s\nwant %s", w, k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := eng.PlanCacheStats().Misses; n != misses {
		t.Errorf("the shared statement compiled %d more times, want 0", n-misses)
	}
}

const correlatedSchema = `
create table t (a int, b int);
insert into t values (1, 10), (2, 20), (3, null), (4, 0);
create table s (k int, v int);
create index ix_s on s(k);
insert into s values (1, 5), (1, 7), (1, 7), (2, 9), (2, 1), (3, 4), (4, 6);
create table u (k int, w int);
insert into u values (1, 100), (2, 200), (3, 300);
`

// correlatedShapes are correlated scalar, EXISTS and IN subqueries over
// every operator a subquery tree can hold, with their rows. Each outer row
// re-opens the tree the first one built.
var correlatedShapes = []struct{ sql, want string }{
	{"select a, (select top 1 v from s where s.k = t.a order by v desc) from t order by a",
		"1 7; 2 9; 3 4; 4 6"},
	{"select a, (select top 2 v from s where s.k = t.a order by v) from t where a = 3",
		"3 4"},
	{"select a from t where 7 in (select distinct v from s where s.k = t.a) order by a",
		"1"},
	{"select a, (select count(*) from (select distinct v from s where s.k = t.a) d) from t order by a",
		"1 2; 2 2; 3 1; 4 1"},
	{"select a, (select sum(x) from (select v as x from s where s.k = t.a union all select w from u where u.k = t.a) q) from t order by a",
		"1 119; 2 210; 3 304; 4 6"},
	{"select a, (select count(*) from s join u on s.k = u.k where s.k = t.a) from t order by a",
		"1 3; 2 2; 3 1; 4 0"},
	{"select a, (select max(c) from (select v, count(*) as c from s where s.k = t.a group by v) g) from t order by a",
		"1 2; 2 1; 3 1; 4 1"},
	{"select a from t where exists (select v from s where s.k = t.a group by v having count(*) > 1)",
		"1"},
	{"with r(i) as (select 1 as i union all select i + 1 from r where i < 4) select a, (select sum(i) from r where r.i <= t.a) from t order by a",
		"1 1; 2 3; 3 6; 4 10"},
	{"select a from t where exists (select 1 from s where s.k = t.a and s.v > 5) order by a",
		"1; 2; 4"},
	{"select a from t where not exists (select 1 from u where u.k = t.a) order by a",
		"4"},
	{"select a, case when 7 in (select v from s where s.k = t.a) then 1 else 0 end from t order by a",
		"1 1; 2 0; 3 0; 4 0"},
	{"select a from t where b / 10 not in (select k from s where s.v < t.a * 3) order by a",
		"1; 4"},
}

// renderRows prints rows as "v v; v v" for literal comparison.
func renderRows(rows []exec.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		parts[i] = strings.Join(vals, " ")
	}
	return strings.Join(parts, "; ")
}

// TestCorrelatedSubqueryShapes runs every shape twice on one context, so
// the second statement re-opens the trees the first one left idle, and
// checks the rows each time. A division by zero in one outer row fails its
// statement and drops the tree; the statements after it answer as before.
func TestCorrelatedSubqueryShapes(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	sess := eng.NewSession()
	if _, err := interp.RunScript(sess, parser.MustParse(correlatedSchema)); err != nil {
		t.Fatal(err)
	}
	ctx := sess.Ctx(nil, nil)
	run := func(sql string, params ...sqltypes.Value) (string, error) {
		q := parser.MustParse(sql)[0].(*ast.QueryStmt).Query
		ctx.Params = params
		_, rows, err := sess.Query(q, ctx)
		return renderRows(rows), err
	}
	for pass := 1; pass <= 2; pass++ {
		for _, c := range correlatedShapes {
			got, err := run(c.sql)
			if err != nil {
				t.Errorf("pass %d: %s: %v", pass, c.sql, err)
			} else if got != c.want {
				t.Errorf("pass %d: %s\n got %s\nwant %s", pass, c.sql, got, c.want)
			}
		}
	}

	divide := "select a, (select sum(v * 10 / t.b) from s where s.k = t.a) from t where a between ? and ? order by a"
	for _, step := range []struct {
		lo, hi  int64
		want    string
		wantErr string
	}{
		{1, 3, "1 19; 2 4; 3 NULL", ""},
		{1, 4, "", "division by zero"},
		{4, 4, "", "division by zero"},
		{1, 3, "1 19; 2 4; 3 NULL", ""},
		{2, 2, "2 4", ""},
	} {
		got, err := run(divide, sqltypes.NewInt(step.lo), sqltypes.NewInt(step.hi))
		switch {
		case step.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), step.wantErr) {
				t.Errorf("a in [%d, %d]: err %v, want %q", step.lo, step.hi, err, step.wantErr)
			}
		case err != nil:
			t.Errorf("a in [%d, %d]: %v", step.lo, step.hi, err)
		case got != step.want:
			t.Errorf("a in [%d, %d]: got %s, want %s", step.lo, step.hi, got, step.want)
		}
	}
}

// TestNullInEmptySubquery pins SQL's answer for a NULL probe: NULL IN
// (empty set) is FALSE and NULL NOT IN (empty set) TRUE; against a
// non-empty set both are unknown. It checks WHERE, CASE and a routine
// body, compiled and interpreted.
func TestNullInEmptySubquery(t *testing.T) {
	db := aggify.Open()
	if err := db.Exec(`
create table t (a int, b int);
insert into t values (1, null), (2, 5);
create table s (v int);
create table s2 (v int);
insert into s2 values (7);
GO
create function notInS(@x int) returns int as
begin
  if @x not in (select v from s) return 1;
  return 0;
end
GO
create function inS(@x int) returns int as
begin
  if @x in (select v from s) return 1;
  if not (@x in (select v from s)) return 0;
  return -1;
end
GO
create function notInS2(@x int) returns int as
begin
  if @x not in (select v from s2) return 1;
  return 0;
end`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, want string }{
		{"select a from t where b not in (select v from s) order by a", "1; 2"},
		{"select count(*) from t where b not in (select v from s where v > 100)", "2"},
		{"select a from t where b in (select v from s) order by a", ""},
		{"select a from t where not (b in (select v from s)) order by a", "1; 2"},
		{"select a from t where b not in (select v from s2) order by a", "2"},
		{"select a, case when b not in (select v from s) then 'y' else 'n' end from t order by a", "1 'y'; 2 'y'"},
		{"select a, case when b in (select v from s) then 'y' when not (b in (select v from s)) then 'n' else 'u' end from t order by a", "1 'n'; 2 'n'"},
		{"select a, case when b not in (select v from s2) then 'y' when b in (select v from s2) then 'n' else 'u' end from t order by a", "1 'u'; 2 'y'"},
		{"select a, notInS(b), inS(b), notInS2(b) from t order by a", "1 1 0 0; 2 1 0 1"},
	} {
		rows, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := renderRows(rows.Data); got != c.want {
			t.Errorf("%s\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
	for _, c := range []struct {
		fn   string
		want int64
	}{{"notInS", 1}, {"inS", 0}, {"notInS2", 0}} {
		for tier, call := range map[string]func() (sqltypes.Value, error){
			"compiled": func() (sqltypes.Value, error) { return db.Call(c.fn, sqltypes.Null) },
			"interpreted": func() (sqltypes.Value, error) {
				return interp.CallFunctionInterpreted(db.Session(), c.fn, sqltypes.Null)
			},
		} {
			v, err := call()
			if err != nil {
				t.Errorf("%s %s(NULL): %v", tier, c.fn, err)
			} else if got, _ := v.AsInt(); v.IsNull() || got != c.want {
				t.Errorf("%s %s(NULL) = %s, want %d", tier, c.fn, v, c.want)
			}
		}
	}
}
