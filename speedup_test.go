package aggify_test

import (
	"testing"
	"time"

	"aggify"
	"aggify/internal/ast"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
)

// speedupRows is large enough that each pair measures real scan and
// aggregation work, not per-query setup.
const speedupRows = 120_000

// TestSameProcessSpeedups holds three optimizations to a floor over their
// unoptimized twins. Both sides of a pair run in this process over the same
// data, interleaved round by round, so the speed of the host cancels out of
// the ratio best(slow) ÷ best(fast); an absolute time would not survive a
// change of host. Before timing, each pair checks that it measures what it
// claims: a plan shape or identical results.
func TestSameProcessSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup pairs time queries over 120 000 rows")
	}
	db := aggify.Open()
	// gatep has an ordered index on k, so the pushed predicate can become
	// an index seek and the range predicate can stream k's ordered range.
	if err := db.Exec(`create table gatep (k int, v int); create index idx_gatep on gatep(k) using ordered
GO
create function hashLoop(@n int) returns int as
begin
  declare @i int = 0;
  declare @acc int = 7;
  while @i < @n
  begin
    set @acc = (@acc * 31 + @i) % 1000003;
    if @acc % 5 = 0 set @acc = @acc + 3;
    set @i = @i + 1;
  end
  return @acc;
end`); err != nil {
		t.Fatal(err)
	}
	eng := db.Engine()
	tab, ok := eng.Table("gatep")
	if !ok {
		t.Fatal("gatep table missing after create")
	}
	for i := int64(0); i < speedupRows; i++ {
		if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i % 97), sqltypes.NewInt(i % 1001)}); err != nil {
			t.Fatal(err)
		}
	}

	// query returns a call that runs sql in a session with the given rules
	// disabled, after checking that the plan holds op exactly when no rule
	// is disabled.
	query := func(sql string, disable plan.RuleSet, op string) func() error {
		t.Helper()
		q := parser.MustParse(sql)[0].(*ast.QueryStmt).Query
		sess := eng.NewSession()
		sess.Opts.DisableRules = disable
		p, err := sess.PlanQuery(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Explain.Contains(op), disable == 0; got != want {
			t.Fatalf("%s with rules %b off: %s in plan = %v, want %v\n%s", sql, disable, op, got, want, p.Explain)
		}
		return func() error {
			_, _, err := sess.Query(q, sess.Ctx(nil, nil))
			return err
		}
	}
	const pushdownSQL = "select sum(q.v) from (select k, v from gatep) q where q.k = 7"
	const rangeSQL = "select sum(v) from gatep where k >= 90"

	procSess := eng.NewSession()
	arg := sqltypes.NewInt(2000)
	cv, err := interp.CallFunctionByName(procSess, "hashLoop", arg)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := interp.CallFunctionInterpreted(procSess, "hashLoop", arg)
	if err != nil {
		t.Fatal(err)
	}
	if cv.String() != iv.String() {
		t.Fatalf("hashLoop: compiled = %s, interpreted = %s", cv, iv)
	}
	compiled := func() error {
		_, err := interp.CallFunctionByName(procSess, "hashLoop", arg)
		return err
	}
	interpreted := func() error {
		_, err := interp.CallFunctionInterpreted(procSess, "hashLoop", arg)
		return err
	}

	for _, p := range []struct {
		name       string
		floor      float64
		iters      int
		fast, slow func() error
	}{
		// push_filter moves the filter through the derived table, where
		// choose_access_path makes it an index seek; with the rewrite pass
		// off the derived table materializes every row first.
		{"pushdown", 1.5, 4,
			query(pushdownSQL, 0, "IndexSeek"),
			query(pushdownSQL, plan.RuleAll, "IndexSeek")},
		// choose_access_path range-seeks about 7% of gatep; without it
		// the query scans and filters every row.
		{"rangeseek", 2, 10,
			query(rangeSQL, 0, "RangeSeek("),
			query(rangeSQL, plan.RuleChooseAccessPath, "RangeSeek(")},
		// The slot-compiled routine against the tree-walking interpreter
		// on an arithmetic-heavy WHILE loop.
		{"proc_compile", 1.5, 10, compiled, interpreted},
	} {
		run := func(f func() error) time.Duration {
			start := time.Now()
			for i := 0; i < p.iters; i++ {
				if err := f(); err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
			}
			return time.Since(start)
		}
		fast, slow := run(p.fast), run(p.slow)
		for round := 1; round < 5; round++ {
			fast = min(fast, run(p.fast))
			slow = min(slow, run(p.slow))
		}
		ratio := float64(slow) / float64(fast)
		t.Logf("%s: %.2fx (best of 5 rounds of %d: slow %v, fast %v; floor %.1fx)",
			p.name, ratio, p.iters, slow, fast, p.floor)
		if ratio < p.floor {
			t.Errorf("%s: slow ÷ fast = %.2fx, below the %.1fx floor", p.name, ratio, p.floor)
		}
	}
}
