package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
)

// Property test for the logical rewrite pass: every generated query must
// return byte-identical rows with the pass enabled, with every rule
// disabled, and with the cost-based rule off (same trial structure as the
// Merge property test in internal/exec). Unlike
// TestPlannerRewritesPreserveResults this comparison is order-sensitive,
// and no rule is exempt from it. Most queries order by all their output
// columns; the join chain orders by nothing, so a rule that changed the
// join order would show up as a diff.

// randomRewriteQuery emits one query shaped to give the rewrite rules
// something to chew on: constant subexpressions, filters above derived
// tables (plain and grouped), derived tables over joins and TOP, and
// range predicates on indexed columns.
func randomRewriteQuery(rng *rand.Rand) string {
	k := rng.Intn(10)
	switch rng.Intn(10) {
	case 0: // constant folding in the predicate
		return fmt.Sprintf(`select a, b from t1 where 1 + 1 = 2 and a < %d and 'x' <> 'y' order by a, b`, k)
	case 1: // pushdown into a plain derived table (indexed base column)
		return fmt.Sprintf(`select q.b from (select a, b, c from t1) q where q.a = %d order by b`, k)
	case 2: // pushdown into a grouped derived table on the group key
		return fmt.Sprintf(`select q.a, q.sb from (select a, sum(b) as sb, count(*) as n from t1 group by a) q
		                    where q.a >= %d order by a`, k)
	case 3: // pushdown into a derived join that projects unreferenced columns
		return fmt.Sprintf(`select q.a from (select t1.a, b, c, t2.d from t1, t2 where t1.a = t2.a) q
		                    where q.a between %d and %d order by a`, k, k+4)
	case 4: // outer sort that re-states an ordered TOP derived table's order
		return fmt.Sprintf(`select q.a, q.b from (select top %d a, b from t1 order by a, b) q order by a, b`,
			1+rng.Intn(20))
	case 5: // derived under a left join: pushdown must respect null-supply
		return fmt.Sprintf(`select t1.a, q.d from t1 left join (select a, d from t2) q on t1.a = q.a
		                    where t1.b > %d order by t1.a, q.d, t1.b`, rng.Intn(10)-5)
	case 6: // range predicate on an ordered-indexed column (choose_access_path)
		lo := rng.Intn(40)
		return fmt.Sprintf(`select a, b, d from t1 where d >= %d and d < %d order by a, b, d`, lo, lo+rng.Intn(15))
	case 7: // eq + range mix: the cost model must pick one access path and
		// keep the residual predicate
		return fmt.Sprintf(`select a, b from t1 where a = %d and d > %d order by a, b`, k, rng.Intn(40))
	case 8: // three-table inner-join chain, no ORDER BY: the rows must come
		// back in the same order under every configuration (pushdown below
		// the join, access paths on the indexed join keys)
		return fmt.Sprintf(`select t1.a, t2.d, t3.e from t1
		                    join t2 on t1.a = t2.a
		                    join t3 on t2.a = t3.a
		                    where t1.b >= %d`, rng.Intn(10)-5)
	default: // everything at once, plus a constant CASE
		return fmt.Sprintf(`select q.g, q.n from
		  (select a %% 3 as g, count(*) as n, sum(b) as sb from t1 where case when 1 = 1 then b else a end >= %d
		   group by a %% 3) q
		 where q.g >= %d order by g, n`, rng.Intn(8)-4, rng.Intn(2))
	}
}

// runOrdered renders rows in the order the engine returns them, without
// canonicalizing.
func runOrdered(t *testing.T, sess *engine.Session, sql string) []string {
	t.Helper()
	stmts := parser.MustParse(sql)
	_, rows, err := sess.Query(stmts[0].(*ast.QueryStmt).Query, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			s += v.String()
		}
		out[i] = s
	}
	return out
}

func TestRewritePassPreservesResults(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	seed := eng.NewSession()
	script := `
create table t1 (a int, b int, c varchar(8), d int);
create table t2 (a int, d int);
create table t3 (a int, e int);
create index i1 on t1(a);
create index i2 on t2(a);
create index i3 on t3(a);
create index o1 on t1(d) using ordered;
`
	if _, err := interp.RunScript(seed, parser.MustParse(script)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	labels := []string{"red", "blue", "green"}
	for i := 0; i < 80; i++ {
		c := fmt.Sprintf("'%s'", labels[rng.Intn(3)])
		if rng.Intn(8) == 0 {
			c = "null"
		}
		sql := fmt.Sprintf("insert into t1 values (%d, %d, %s, %d)",
			rng.Intn(10), rng.Intn(20)-10, c, rng.Intn(50))
		if err := insertSQL(seed, sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		sql := fmt.Sprintf("insert into t2 values (%d, %d)", rng.Intn(12), rng.Intn(100))
		if err := insertSQL(seed, sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 65; i++ {
		sql := fmt.Sprintf("insert into t3 values (%d, %d)", rng.Intn(12), rng.Intn(40))
		if err := insertSQL(seed, sql); err != nil {
			t.Fatal(err)
		}
	}

	type cfg struct {
		name string
		sess *engine.Session
	}
	mk := func(rules plan.RuleSet) *engine.Session {
		s := eng.NewSession()
		s.Opts.DisableRules = rules
		return s
	}
	configs := []cfg{
		{"rewrite", mk(0)},
		{"norewrite", mk(plan.RuleAll)},
		// The cost-based rule off must reproduce the same rows the full
		// pass produces.
		{"no-accesspath", mk(plan.RuleChooseAccessPath)},
	}

	for trial := 0; trial < 80; trial++ {
		sql := randomRewriteQuery(rng)
		want := runOrdered(t, configs[0].sess, sql)
		for _, c := range configs[1:] {
			got := runOrdered(t, c.sess, sql)
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d rows vs %d\nquery: %s", trial, c.name, len(got), len(want), sql)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%s): row %d differs\n got: %s\nwant: %s\nquery: %s",
						trial, c.name, i, got[i], want[i], sql)
				}
			}
		}
	}
}
