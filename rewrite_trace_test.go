package aggify_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggify"
	"aggify/internal/ast"
	"aggify/internal/plan"
)

// TestRewriteTraceGolden locks down the EXPLAIN rewrite trace (the `rewrites:`
// and `declined:` headers plus the [rw:rule] node annotations) for
// representative queries: predicate pushdown into a derived table, constant
// folding, an outer sort that re-states its input's order (no rule drops
// it), and inline_udf on an aggified UDF,
// on its cursor-loop twin and on a body whose FROM would capture the
// argument. The `rules off:` sections pin the plan each basic query shape
// compiles to when no rule runs (DisableRules = RuleAll), the union section
// places a UNION ALL branch's TOP under that branch, and the decorrelation
// sections pin the left join a correlated scalar aggregate becomes (with its
// rows, so a part no supplier serves counts 0) and the apply it stays with
// decorrelation off. Regenerate with:
// go test -run TestRewriteTraceGolden -update .
func TestRewriteTraceGolden(t *testing.T) {
	db := newDemoDB(t)
	if err := db.Exec(`
create table part (p_partkey int);
create index pk_part on part(p_partkey);
insert into part values (1), (2), (3);
GO
create function nsupp(@k int) returns int as
begin
  return (select count(*) from partsupp where ps_partkey = @k);
end`); err != nil {
		t.Fatal(err)
	}
	// The aggified twin of the demo's cursor-loop minCostSupp.
	loop, _ := db.Engine().Function("minCostSupp")
	twin := ast.CloneStmt(loop).(*ast.CreateFunction)
	twin.Name = "minCostSuppAggified"
	if err := db.Engine().RegisterFunction(twin); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AggifyFunction(twin.Name, aggify.TransformOptions{}); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		label, sql string
	}{
		{"pushdown into derived", `EXPLAIN select q.ps_suppkey, q.ps_supplycost
from (select ps_partkey, ps_suppkey, ps_supplycost from partsupp) q
where q.ps_partkey = 1`},
		{"constant folding", `EXPLAIN select s_name from supplier
where 1 + 1 = 2 and s_suppkey >= 10 and 'a' = 'b' or null is not null`},
		{"redundant sort", `EXPLAIN select q.s_name
from (select top 5 s_name from supplier order by s_name) q
order by s_name`},
		{"inline_udf: aggified driver", `EXPLAIN select p_partkey, minCostSuppAggified(p_partkey)
from part where p_partkey between 1 and 2`},
		{"inline_udf: cursor-loop twin", `EXPLAIN select p_partkey, minCostSupp(p_partkey)
from part where p_partkey between 1 and 2`},
		{"inline_udf: name capture", `EXPLAIN select ps_partkey, nsupp(ps_partkey)
from partsupp where ps_partkey = 1`},
	}

	var b strings.Builder
	for _, q := range queries {
		b.WriteString("-- " + q.label + "\n")
		b.WriteString(runExplainDB(t, db, q.sql))
		b.WriteByte('\n')
	}
	rulesOff := []struct {
		label, sql string
	}{
		{"projection", `select ps_partkey, ps_supplycost from partsupp`},
		{"distinct with where", `select distinct ps_partkey from partsupp
where ps_partkey = 1 and ps_supplycost > 2`},
		{"group by with having", `select ps_partkey, count(*) as n from partsupp
where ps_suppkey = 10 group by ps_partkey having count(*) > 0`},
		{"top with order by", `select top 3 ps_partkey from partsupp
order by ps_partkey desc, ps_suppkey`},
		{"derived table", `select q.ps_partkey
from (select ps_partkey from partsupp where ps_partkey > 0) q
where q.ps_partkey < 10`},
		{"inner and left join chain", `select s_name from partsupp
inner join supplier on ps_suppkey = s_suppkey
left join part on p_partkey = ps_partkey`},
		{"cte", `with c as (select ps_partkey from partsupp)
select * from c where ps_partkey = 1`},
		{"union all with order by", `select s_suppkey from supplier
union all select ps_suppkey from partsupp order by s_suppkey`},
	}
	sess := db.Session()
	sess.Opts.DisableRules = plan.RuleAll
	for _, q := range rulesOff {
		b.WriteString("-- rules off: " + q.label + "\n")
		b.WriteString(runExplainDB(t, db, "EXPLAIN "+q.sql))
		b.WriteByte('\n')
	}
	sess.Opts.DisableRules = 0
	// A TOP limits its own UNION ALL branch; the ORDER BY sorts the union.
	b.WriteString("-- union all: top per branch\n")
	b.WriteString(runExplainDB(t, db, `EXPLAIN select top 1 s_suppkey from supplier
union all select ps_suppkey from partsupp order by s_suppkey`))
	b.WriteByte('\n')
	decor := []struct {
		label, sql string
	}{
		{"count(*)", `select p_partkey, (select count(*) from partsupp where ps_partkey = p_partkey) as n
from part order by p_partkey`},
		{"shared subquery", `select p_partkey,
(select min(ps_supplycost) from partsupp where ps_partkey = p_partkey) as lo,
(select min(ps_supplycost) from partsupp where ps_partkey = p_partkey) + 1 as lo1
from part order by p_partkey`},
		{"through a derived table", `select p_partkey,
(select sum(q.c) from (select ps_partkey as k, ps_supplycost as c from partsupp) q
 where q.k = p_partkey) as total
from part order by p_partkey`},
	}
	for _, off := range []plan.RuleSet{0, plan.RuleDecorrelate} {
		sess.Opts.DisableRules = off
		for _, q := range decor {
			if off != 0 {
				b.WriteString("-- decorrelation off: " + q.label + "\n")
			} else {
				b.WriteString("-- decorrelate: " + q.label + "\n")
			}
			b.WriteString(runExplainDB(t, db, "EXPLAIN "+q.sql))
			b.WriteString("rows: " + strings.Join(queryRows(t, db, q.sql), " ") + "\n\n")
		}
	}
	sess.Opts.DisableRules = 0
	got := b.String()
	// The rule runs after decorrelation: the inlined apply stays an apply.
	inlined := got[strings.Index(got, "-- inline_udf: aggified"):strings.Index(got, "-- inline_udf: cursor")]
	if !strings.Contains(inlined, "[rw:inline_udf]") || strings.Contains(inlined, "Join") || strings.Contains(inlined, "__dcor") {
		t.Errorf("aggified driver should inline as a correlated apply:\n%s", inlined)
	}

	golden := filepath.Join("testdata", "rewrite_trace.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("rewrite trace drifted from %s.\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
