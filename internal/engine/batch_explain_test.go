package engine_test

import (
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
)

// bigDB builds a session over a table of several batches' worth of rows.
func bigDB(t *testing.T, rows int64) *engine.Session {
	t.Helper()
	sess := newDB(t, "create table bigt (k int, v int);")
	tab, _ := sess.Eng.Table("bigt")
	for i := int64(0); i < rows; i++ {
		_ = tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i % 97), sqltypes.NewInt(i % 1001)})
	}
	return sess
}

func mustSelect(t *testing.T, sql string) *ast.Select {
	t.Helper()
	stmts := parser.MustParse(sql)
	q, ok := stmts[0].(*ast.QueryStmt)
	if !ok || len(stmts) != 1 {
		t.Fatalf("not a single query: %s", sql)
	}
	return q.Query
}

func explain(t *testing.T, sess *engine.Session, sql string) string {
	t.Helper()
	lines, err := sess.ExplainQuery(mustSelect(t, sql), false, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return strings.Join(lines, "\n")
}

// TestExplainBatchAnnotations checks that EXPLAIN reports whether an
// aggregation runs on the vectorized batch path — and, when it falls back,
// which precondition failed. The suffixes come from the same eligibility
// check the executor uses (exec.BatchWorthwhile plus the batch-capable chain
// walk), so the annotation cannot drift from what actually runs.
func TestExplainBatchAnnotations(t *testing.T) {
	sess := bigDB(t, 5000)
	if _, err := interp.RunScript(sess, parser.MustParse(`
create table tiny2 (k int, v int);
insert into tiny2 values (1, 10), (2, 20);
GO
create aggregate CustomSum(@v int) returns int as
begin
  fields (@s int);
  init begin set @s = 0; end
  accumulate begin set @s = @s + @v; end
  terminate begin return @s; end
end`)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, sql, want string
	}{
		{"eligible grouped agg", "select k, count(*), sum(v) from bigt group by k", "[batch]"},
		{"eligible scalar agg", "select min(v), max(v) from bigt", "[batch]"},
		{"filter below agg stays batched", "select sum(v) from bigt where k < 50", "[batch]"},
		{"custom aggregate falls back", "select CustomSum(v) from bigt", "[row: aggregate not vectorizable]"},
		{"join input falls back", "select count(*) from bigt b1, tiny2 b2 where b1.k = b2.k",
			"[row: input not batch-capable]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := explain(t, sess, tc.sql)
			if !strings.Contains(plan, tc.want) {
				t.Fatalf("want %q in plan:\n%s", tc.want, plan)
			}
		})
	}

	// A session that forces the row path says so.
	rowSess := sess.Eng.NewSession()
	rowSess.Opts.DisableBatch = true
	plan := explain(t, rowSess, "select k, sum(v) from bigt group by k")
	if !strings.Contains(plan, "[row: batch disabled]") {
		t.Fatalf("want [row: batch disabled] in plan:\n%s", plan)
	}
	if strings.Contains(plan, "[batch]") {
		t.Fatalf("disabled session must not claim the batch path:\n%s", plan)
	}
}
