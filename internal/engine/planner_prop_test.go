package engine_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
)

// Property test: the planner's rewrites (index-seek selection, greedy join
// ordering, hash-join choice, apply decorrelation, common-subquery
// hoisting) must never change results. Random queries run against three
// configurations — indexed, unindexed, and decorrelation-disabled — and
// must agree row-for-row.

func buildPropDB(t *testing.T, withIndexes bool) *engine.Session {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	sess := eng.NewSession()
	rng := rand.New(rand.NewSource(99))
	script := strings.Builder{}
	script.WriteString(`
create table t1 (a int, b int, c varchar(8));
create table t2 (a int, d int);
`)
	if withIndexes {
		script.WriteString("create index i1 on t1(a);\ncreate index i2 on t2(a);\n")
	}
	if _, err := interp.RunScript(sess, parser.MustParse(script.String())); err != nil {
		t.Fatal(err)
	}
	labels := []string{"red", "blue", "green"}
	for i := 0; i < 60; i++ {
		a := int64(rng.Intn(10))
		b := int64(rng.Intn(20) - 10)
		var err error
		if rng.Intn(8) == 0 {
			err = insertSQL(sess, fmt.Sprintf("insert into t1 values (%d, %d, null)", a, b))
		} else {
			err = insertSQL(sess, fmt.Sprintf("insert into t1 values (%d, %d, '%s')", a, b, labels[rng.Intn(3)]))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		a := int64(rng.Intn(12)) // some keys miss t1 (outer-join coverage)
		d := int64(rng.Intn(100))
		if err := insertSQL(sess, fmt.Sprintf("insert into t2 values (%d, %d)", a, d)); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func insertSQL(sess *engine.Session, sql string) error {
	_, err := interp.RunScript(sess, parser.MustParse(sql))
	return err
}

// randomQuery emits one random-but-valid query over t1/t2.
func randomQuery(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0: // filtered single-table scan, maybe sargable
		return fmt.Sprintf("select a, b from t1 where a = %d and b > %d order by b, a",
			rng.Intn(10), rng.Intn(10)-5)
	case 1: // comma join with equality (index NL or hash)
		return fmt.Sprintf(`select t1.a, b, d from t1, t2
		                    where t1.a = t2.a and d < %d order by t1.a, b, d`, rng.Intn(100))
	case 2: // explicit left join
		return fmt.Sprintf(`select t1.a, count(d) as nd from t1 left join t2 on t1.a = t2.a
		                    where b >= %d group by t1.a order by t1.a`, rng.Intn(6)-3)
	case 3: // correlated scalar-aggregate subquery (decorrelation target)
		agg := []string{"count(*)", "sum(d)", "min(d)", "max(d)"}[rng.Intn(4)]
		return fmt.Sprintf(`select a, b, (select %s from t2 where t2.a = t1.a) as s
		                    from t1 where b <> %d order by a, b, s`, agg, rng.Intn(10))
	case 4: // grouped aggregation with HAVING and expression keys
		return fmt.Sprintf(`select a %% 3 as g, sum(b) as sb, count(*) as n from t1
		                    group by a %% 3 having count(*) > %d order by g`, rng.Intn(3))
	default: // duplicated subquery (common-subquery hoisting target)
		return fmt.Sprintf(`select a,
		         (select count(*) from t2 where t2.a = t1.a) + (select count(*) from t2 where t2.a = t1.a) as twice
		       from t1 where a <= %d order by a, twice`, rng.Intn(10))
	}
}

func runSQL(t *testing.T, sess *engine.Session, sql string) []string {
	t.Helper()
	stmts := parser.MustParse(sql)
	_, rows, err := sess.Query(stmts[0].(*ast.QueryStmt).Query, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	// Queries all carry ORDER BY, but ties may order differently across
	// plans; canonicalize fully.
	sort.Strings(out)
	return out
}

func TestPlannerRewritesPreserveResults(t *testing.T) {
	indexed := buildPropDB(t, true)
	unindexed := buildPropDB(t, false)
	noDecor := buildPropDB(t, true)
	noDecor.Opts.DisableDecorrelation = true

	rng := rand.New(rand.NewSource(20200615))
	for trial := 0; trial < 60; trial++ {
		sql := randomQuery(rng)
		want := runSQL(t, indexed, sql)
		for name, sess := range map[string]*engine.Session{
			"unindexed":      unindexed,
			"no-decorrelate": noDecor,
		} {
			got := runSQL(t, sess, sql)
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d rows vs %d\nquery: %s", trial, name, len(got), len(want), sql)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%s): row %d differs\n got: %s\nwant: %s\nquery: %s",
						trial, name, i, got[i], want[i], sql)
				}
			}
		}
	}
}

func TestPlannerUsesIndexWhenAvailable(t *testing.T) {
	indexed := buildPropDB(t, true)
	q := parser.MustParse("select b from t1 where a = 3")[0].(*ast.QueryStmt).Query
	p, err := indexed.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Explain.Contains("IndexSeek(t1.a)") {
		t.Fatalf("expected index seek:\n%s", p.Explain)
	}
	unindexed := buildPropDB(t, false)
	p2, err := unindexed.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Explain.Contains("IndexSeek") {
		t.Fatalf("unindexed DB cannot seek:\n%s", p2.Explain)
	}
}
