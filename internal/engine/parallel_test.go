package engine_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/testutil"
)

// bigDB builds a session over a table large enough to clear the planner's
// parallel row threshold (4096).
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

func TestParallelPlanByteIdentical(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sess := bigDB(t, 8000)
	const sql = "select k, count(*), sum(v), min(v), max(v), avg(v) from bigt where v % 3 <> 1 group by k"
	serialRows := query(t, sess, sql)

	par := sess.Eng.NewSession()
	par.Opts.Parallelism = 4
	plan := explain(t, par, sql)
	if !strings.Contains(plan, "ParallelAgg(workers=4") || !strings.Contains(plan, "ParallelScan(bigt, parts=4)") {
		t.Fatalf("expected a parallel plan:\n%s", plan)
	}
	_, parRows, err := par.Query(mustSelect(t, sql), par.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	// No ORDER BY: the parallel plan must reproduce the serial first-seen
	// group order and every value exactly.
	if len(parRows) != len(serialRows) {
		t.Fatalf("parallel %d rows vs serial %d", len(parRows), len(serialRows))
	}
	for i := range parRows {
		for j := range parRows[i] {
			if !sqltypes.GroupEqual(parRows[i][j], serialRows[i][j]) {
				t.Fatalf("row %d: parallel %v vs serial %v", i, parRows[i], serialRows[i])
			}
		}
	}
}

// TestParallelScanKeepsFilterTag checks that the partitions of a filtering
// scan say so, as the serial scan they replace does.
func TestParallelScanKeepsFilterTag(t *testing.T) {
	sess := bigDB(t, 8000)
	sess.Opts.Parallelism = 4
	plan := explain(t, sess, "select k, sum(v) from bigt where v < 500 group by k")
	if !strings.Contains(plan, "ParallelScan(bigt, parts=4) [filter: bound]") {
		t.Fatalf("expected a filtering parallel scan:\n%s", plan)
	}
}

// TestParallelSerialReasons checks that a parallel-enabled session surfaces
// why a plan stayed serial as an EXPLAIN label suffix.
func TestParallelSerialReasons(t *testing.T) {
	sess := bigDB(t, 8000)
	if _, err := interp.RunScript(sess, parser.MustParse(`
create table tiny (k int, v int);
insert into tiny values (1, 10), (2, 20);
GO
create function double(@x int) returns int as begin return @x * 2; end
GO
create aggregate NoMerge(@v int) returns int as
begin
  fields (@s int, @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false
    begin
      set @s = 0;
      set @isInitialized = true;
    end
    set @s = @s + @v;
  end
  terminate begin return @s; end
end`)); err != nil {
		t.Fatal(err)
	}
	par := sess.Eng.NewSession()
	par.Opts.Parallelism = 4
	for _, tc := range []struct {
		name, sql, want string
	}{
		{"small input", "select sum(v) from tiny", "[serial: small input]"},
		{"not mergeable", "select NoMerge(v) from bigt", "[serial: aggregate not mergeable]"},
		{"scalar UDF", "select sum(double(v)) from bigt", "[serial: scalar UDF in worker expression]"},
		{"join", "select sum(b1.v) from bigt b1, tiny b2 where b1.k = b2.k", "[serial: plan shape not partitionable]"},
		{"subquery", "select count(*) from bigt where v < (select max(v) from tiny)", "[serial: subquery in worker expression]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := explain(t, par, tc.sql)
			if !strings.Contains(plan, tc.want) {
				t.Fatalf("want %q in plan:\n%s", tc.want, plan)
			}
			if strings.Contains(plan, "ParallelAgg") {
				t.Fatalf("plan should be serial:\n%s", plan)
			}
		})
	}
	// A serial session gets no suffix noise at all.
	if plan := explain(t, sess, "select sum(v) from tiny"); strings.Contains(plan, "[serial:") {
		t.Fatalf("serial session must not annotate plans:\n%s", plan)
	}
}

func TestSetMaxDOPStatement(t *testing.T) {
	sess := newDB(t, "")
	sess.Eng.DefaultMaxDOP = 2
	fresh := sess.Eng.NewSession()
	if fresh.Opts.Parallelism != 2 {
		t.Fatalf("new session parallelism = %d, want engine default 2", fresh.Opts.Parallelism)
	}
	if _, err := interp.RunScript(fresh, parser.MustParse("set maxdop = 4;")); err != nil {
		t.Fatal(err)
	}
	if fresh.Opts.Parallelism != 4 {
		t.Fatalf("after SET MAXDOP = 4: parallelism = %d", fresh.Opts.Parallelism)
	}
	// 0 resets to the engine default, mirroring SQL Server semantics.
	if _, err := interp.RunScript(fresh, parser.MustParse("set maxdop = 0;")); err != nil {
		t.Fatal(err)
	}
	if fresh.Opts.Parallelism != 2 {
		t.Fatalf("after SET MAXDOP = 0: parallelism = %d, want engine default 2", fresh.Opts.Parallelism)
	}
	if _, err := interp.RunScript(fresh, parser.MustParse("set maxdop = -1;")); err == nil {
		t.Fatal("negative MAXDOP should error")
	}
	// Unknown options are not silently treated as variables: SET targets
	// must be @variables or a recognized option keyword.
	if _, err := parser.Parse("set frobnicate = 1;"); err == nil {
		t.Fatal("unknown SET option should fail to parse")
	}
}

// customMergeDDL is a hand-written mergeable sum: the compiled path (pure
// slot machine) makes it ParallelSafe, so a big enough scan parallelizes.
const customMergeDDL = `
create aggregate MergeSum(@v int) returns int as
begin
  fields (@s int, @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false
    begin
      set @s = 0;
      set @isInitialized = true;
    end
    set @s = @s + @v;
  end
  terminate begin return @s; end
  merge begin
    if @other_isInitialized = true
    begin
      if @isInitialized = true
      begin
        set @s = @s + @other_s;
      end
      else
      begin
        set @s = @other_s;
        set @isInitialized = true;
      end
    end
  end
end`

func TestCustomAggregateMergeParallel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sess := bigDB(t, 8000)
	if _, err := interp.RunScript(sess, parser.MustParse(customMergeDDL)); err != nil {
		t.Fatal(err)
	}
	spec, ok := sess.Eng.Aggregate("mergesum")
	if !ok {
		t.Fatal("MergeSum not registered")
	}
	if !spec.Mergeable || !spec.ParallelSafe {
		t.Fatalf("MergeSum: Mergeable=%v ParallelSafe=%v, want both true", spec.Mergeable, spec.ParallelSafe)
	}
	const sql = "select k, MergeSum(v) from bigt group by k"
	serialRows := query(t, sess, sql)
	par := sess.Eng.NewSession()
	par.Opts.Parallelism = 4
	plan := explain(t, par, sql)
	if !strings.Contains(plan, "ParallelAgg(workers=4") {
		t.Fatalf("custom mergeable aggregate should parallelize:\n%s", plan)
	}
	_, parRows, err := par.Query(mustSelect(t, sql), par.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(parRows) != len(serialRows) {
		t.Fatalf("parallel %d rows vs serial %d", len(parRows), len(serialRows))
	}
	for i := range parRows {
		for j := range parRows[i] {
			if !sqltypes.GroupEqual(parRows[i][j], serialRows[i][j]) {
				t.Fatalf("row %d: parallel %v vs serial %v", i, parRows[i], serialRows[i])
			}
		}
	}
}

// specMergeProperty splits vals into random contiguous partitions, folds each
// into its own instance, merges in partition order, and requires the exact
// serial result. Display comparison covers tuple-returning aggregates too.
func specMergeProperty(t *testing.T, sess *engine.Session, spec *exec.AggSpec,
	rng *rand.Rand, vals []sqltypes.Value, extraArgs []sqltypes.Value) {
	t.Helper()
	ctx := sess.Ctx(nil, nil)
	accumulate := func(vs []sqltypes.Value) exec.Aggregator {
		a := spec.New()
		a.Reset()
		for _, v := range vs {
			args := append([]sqltypes.Value{v}, extraArgs...)
			if err := a.Step(ctx, args); err != nil {
				t.Fatalf("%s: step: %v", spec.Name, err)
			}
		}
		return a
	}
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(len(vals) + 1)
		k := 1 + rng.Intn(5)
		cuts := make([]int, k+1)
		cuts[k] = n
		for i := 1; i < k; i++ {
			cuts[i] = rng.Intn(n + 1)
		}
		sort.Ints(cuts)
		serial := accumulate(vals[:n])
		want, err := serial.Result(ctx)
		if err != nil {
			t.Fatalf("%s: serial result: %v", spec.Name, err)
		}
		merged := accumulate(vals[cuts[0]:cuts[1]])
		for p := 1; p < k; p++ {
			part := accumulate(vals[cuts[p]:cuts[p+1]])
			if err := merged.Merge(part); err != nil {
				t.Fatalf("%s: merge: %v", spec.Name, err)
			}
		}
		got, err := merged.Result(ctx)
		if err != nil {
			t.Fatalf("%s: merged result: %v", spec.Name, err)
		}
		if want.Display() != got.Display() {
			t.Fatalf("trial %d %s: serial %s != merged %s (n=%d cuts=%v)",
				trial, spec.Name, want.Display(), got.Display(), n, cuts)
		}
	}
}

func propertyInput(rng *rand.Rand, n int, withNulls bool) []sqltypes.Value {
	vals := make([]sqltypes.Value, n)
	for i := range vals {
		if withNulls && rng.Intn(12) == 0 {
			vals[i] = sqltypes.Null
		} else {
			vals[i] = sqltypes.NewInt(rng.Int63n(201) - 100)
		}
	}
	return vals
}

// TestCustomMergeProperty runs the K-partition property against the same
// definition on both execution paths: compiled (registered through the
// engine) and interpreted (InterpretedAggSpec), NULLs included.
func TestCustomMergeProperty(t *testing.T) {
	sess := newDB(t, "")
	if _, err := interp.RunScript(sess, parser.MustParse(customMergeDDL)); err != nil {
		t.Fatal(err)
	}
	compiled, ok := sess.Eng.Aggregate("mergesum")
	if !ok || !compiled.ParallelSafe {
		t.Fatalf("expected a compiled (parallel-safe) spec, got %+v", compiled)
	}
	def, ok := sess.Eng.AggregateSource("mergesum")
	if !ok {
		t.Fatal("no aggregate source for mergesum")
	}
	interpreted := interp.InterpretedAggSpec(def, false)
	if !interpreted.Mergeable || interpreted.ParallelSafe {
		t.Fatalf("interpreted spec: Mergeable=%v ParallelSafe=%v, want true/false",
			interpreted.Mergeable, interpreted.ParallelSafe)
	}
	rng := rand.New(rand.NewSource(7))
	vals := propertyInput(rng, 120, true)
	t.Run("compiled", func(t *testing.T) { specMergeProperty(t, sess, compiled, rng, vals, nil) })
	t.Run("interpreted", func(t *testing.T) { specMergeProperty(t, sess, interpreted, rng, vals, nil) })
}

// TestGeneratedAggregateMerge runs Aggify on a cursor loop whose Δ is an
// additive fold and checks the generator derived a MERGE section, that the
// resulting spec is parallel-eligible, that the rewritten function matches
// under a parallel session, and that the K-partition property holds for the
// generated aggregate (non-zero initial values exercise the hidden
// base-field subtraction).
func TestGeneratedAggregateMerge(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	sess := newDB(t, "create table vals (k int, v int);")
	tab, _ := sess.Eng.Table("vals")
	for i := int64(0); i < 6000; i++ {
		_ = tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i % 11), sqltypes.NewInt(i % 503)})
	}
	if _, err := interp.RunScript(sess, parser.MustParse(`
create function sumAll(@init int) returns int as
begin
  declare @val int;
  declare @s int = @init;
  declare @n int = 0;
  declare c cursor for select v from vals;
  open c;
  fetch next from c into @val;
  while @@fetch_status = 0
  begin
    set @s = @s + @val;
    set @n = @n + 1;
    fetch next from c into @val;
  end
  close c;
  deallocate c;
  return @s + @n;
end`)); err != nil {
		t.Fatal(err)
	}
	before, err := interp.CallFunctionByName(sess, "sumAll", sqltypes.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}

	def, _ := sess.Eng.Function("sumAll")
	rewritten, res, err := core.TransformFunction(def, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("loops transformed = %d (skipped %v)", len(res.Loops), res.Skipped)
	}
	lr := res.Loops[0]
	if lr.Aggregate.Merge == nil {
		t.Fatalf("additive fold should derive a MERGE section:\n%s", ast.Format(lr.Aggregate))
	}
	if err := sess.Eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
		t.Fatal(err)
	}
	if err := sess.Eng.RegisterFunction(rewritten); err != nil {
		t.Fatal(err)
	}
	sess.Eng.InvalidatePlans()

	spec, ok := sess.Eng.Aggregate(lr.Aggregate.Name)
	if !ok {
		t.Fatalf("generated aggregate %s not registered", lr.Aggregate.Name)
	}
	if !spec.Mergeable || !spec.ParallelSafe {
		t.Fatalf("generated spec: Mergeable=%v ParallelSafe=%v, want both true",
			spec.Mergeable, spec.ParallelSafe)
	}

	// Rewritten function under serial and parallel sessions must agree with
	// the original cursor loop.
	after, err := interp.CallFunctionByName(sess, "sumAll", sqltypes.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if before.Display() != after.Display() {
		t.Fatalf("rewrite changed the result: %s vs %s", before.Display(), after.Display())
	}
	par := sess.Eng.NewSession()
	par.Opts.Parallelism = 4
	// The rewritten body's aggregate query (over the Aggify derived table)
	// must itself take the parallel path.
	rewrittenQ := "select " + lr.Aggregate.Name + "(aggify_q.v, 0, 5) from (select v from vals) aggify_q"
	if plan := explain(t, par, rewrittenQ); !strings.Contains(plan, "ParallelAgg(workers=4") {
		t.Fatalf("generated aggregate should plan parallel:\n%s", plan)
	}
	parV, err := interp.CallFunctionByName(par, "sumAll", sqltypes.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if before.Display() != parV.Display() {
		t.Fatalf("parallel result differs: %s vs %s", before.Display(), parV.Display())
	}

	// K-partition property for the generated aggregate. Parameter order is
	// fetch variables first, then @p_ parameters for the initialized fields
	// in sorted field order (@n before @s).
	rng := rand.New(rand.NewSource(11))
	vals := propertyInput(rng, 150, false)
	extra := []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(7)} // @p_n = 3, @p_s = 7
	specMergeProperty(t, sess, spec, rng, vals, extra)
}
