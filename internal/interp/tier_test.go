package interp

import (
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
)

// tierSession builds an engine with a procedure mixing natively-compiled
// statements with ones that must bridge to the interpreter (a result-set
// SELECT and a nested EXEC).
func tierSession(t *testing.T) *engine.Session {
	t.Helper()
	eng := engine.New()
	Install(eng)
	sess := eng.NewSession()
	setup := `
create table log_t (n int);
GO
create procedure noteOne() as
begin
  insert into log_t values (1);
end
GO
create procedure mixed(@n int) as
begin
  declare @i int = 0;
  while @i < @n
  begin
    insert into log_t values (@i);
    set @i = @i + 1;
  end
  select count(*) from log_t;
  exec noteOne;
end
`
	if _, err := RunScript(sess, parser.MustParse(setup)); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return sess
}

func TestClassifyBodyTierCoverage(t *testing.T) {
	sess := tierSession(t)
	def, ok := sess.Eng.Procedure("mixed")
	if !ok {
		t.Fatal("mixed not registered")
	}
	tiers := ClassifyBody(def.Body)
	compiled, total := TierCoverage(tiers)
	// Leaves: declare, insert, set, select, exec (the WHILE is a container).
	if total != 5 {
		t.Fatalf("total leaves = %d, want 5\n%+v", total, tiers)
	}
	if compiled != 3 {
		t.Fatalf("compiled leaves = %d, want 3 (declare, insert, set)\n%+v", compiled, tiers)
	}
	byText := map[string]StmtTier{}
	for _, tr := range tiers {
		byText[tr.Text] = tr
	}
	if tr, ok := byText["EXEC noteone ;"]; !ok || tr.Tier != TierInterpreted || tr.Why == "" {
		t.Fatalf("EXEC tier = %+v", tr)
	}
}

func TestRoutineTiersMatchStaticClassification(t *testing.T) {
	sess := tierSession(t)
	def, _ := sess.Eng.Procedure("mixed")
	rt := routineFor(sess, def)
	if rt == nil {
		t.Fatal("mixed should compile (partially)")
	}
	gotC, gotT := TierCoverage(rt.tiers)
	wantC, wantT := TierCoverage(ClassifyBody(def.Body))
	if gotC != wantC || gotT != wantT {
		t.Fatalf("compiled coverage %d/%d, static classifier says %d/%d", gotC, gotT, wantC, wantT)
	}
}

// TestPlanCacheWarmZeroAllocs is the routine-lookup third of the guard in
// package engine: every call of a procedure or UDF starts with this lookup.
func TestPlanCacheWarmZeroAllocs(t *testing.T) {
	sess := tierSession(t)
	def, _ := sess.Eng.Procedure("mixed")
	want := routineFor(sess, def)
	allocs := testing.AllocsPerRun(200, func() {
		if routineFor(sess, def) != want {
			t.Fatal("warm routine lookup recompiled")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm routine lookup allocates %v times, want 0", allocs)
	}
}

func TestCompiledProcedureBridgeEquivalence(t *testing.T) {
	// The same procedure through the compiled pipeline (statement-level
	// bridging for SELECT and EXEC) and the tree-walking interpreter must
	// leave identical table state.
	run := func(call func(*engine.Session) error) []string {
		eng := engine.New()
		Install(eng)
		sess := eng.NewSession()
		setup := `
create table log_t (n int);
GO
create procedure noteOne() as
begin
  insert into log_t values (1);
end
GO
create procedure mixed(@n int) as
begin
  declare @i int = 0;
  while @i < @n
  begin
    insert into log_t values (@i);
    set @i = @i + 1;
  end
  select count(*) from log_t;
  exec noteOne;
end
`
		if _, err := RunScript(sess, parser.MustParse(setup)); err != nil {
			t.Fatalf("setup: %v", err)
		}
		if err := call(sess); err != nil {
			t.Fatal(err)
		}
		q := parser.MustParse("select n from log_t order by n")[0].(*ast.QueryStmt).Query
		_, rows, err := sess.Query(q, sess.Ctx(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rows {
			out = append(out, r[0].String())
		}
		return out
	}
	arg := sqltypes.NewInt(4)
	compiled := run(func(s *engine.Session) error { return CallProcedureByName(s, "mixed", arg) })
	interpreted := run(func(s *engine.Session) error { return CallProcedureInterpreted(s, "mixed", arg) })
	if strings.Join(compiled, "|") != strings.Join(interpreted, "|") {
		t.Fatalf("compiled rows %v vs interpreted rows %v", compiled, interpreted)
	}
}

func TestExplainProcedure(t *testing.T) {
	sess := tierSession(t)
	results, err := RunScript(sess, parser.MustParse("explain procedure mixed;"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("result sets = %d, want 1", len(results))
	}
	var lines []string
	for _, row := range results[0].Rows {
		lines = append(lines, row[0].Str())
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(lines[0], "procedure mixed: 3/5 statements compiled") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(text, "[compiled]") {
		t.Fatalf("no compiled tier line:\n%s", text)
	}
	if !strings.Contains(text, "[interpreted: ") {
		t.Fatalf("no interpreted tier line with reason:\n%s", text)
	}
	if !strings.Contains(text, "EXEC noteone ; [interpreted: nested procedure call]") {
		t.Fatalf("EXEC line missing its why:\n%s", text)
	}
}

func TestExplainProcedureAggifyVerdicts(t *testing.T) {
	sess := profSession(t)
	out := func(proc string) string {
		results, err := RunScript(sess, parser.MustParse("explain procedure "+proc+";"))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, row := range results[0].Rows {
			lines = append(lines, row[0].Str())
		}
		return strings.Join(lines, "\n")
	}
	accepted := out("sumAbove")
	if !strings.Contains(accepted, "cursor loop c: aggify=candidate") {
		t.Fatalf("sumAbove verdict missing:\n%s", accepted)
	}
	rejected := out("copyNums")
	if !strings.Contains(rejected, "aggify=rejected code="+string(core.ReasonPersistentDML)) {
		t.Fatalf("copyNums verdict missing the reason code:\n%s", rejected)
	}
}

func TestExplainProcedureUnknown(t *testing.T) {
	sess := tierSession(t)
	if _, err := RunScript(sess, parser.MustParse("explain procedure nosuch;")); err == nil ||
		!strings.Contains(err.Error(), "unknown procedure nosuch") {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceProcedureTierLines(t *testing.T) {
	sess := tierSession(t)
	results, err := RunScript(sess, parser.MustParse("trace procedure mixed(2);"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range results[len(results)-1].Rows {
		lines = append(lines, row[0].Str())
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "tier=compiled") {
		t.Fatalf("no compiled tier in trace:\n%s", text)
	}
	if !strings.Contains(text, "tier=interpreted (nested procedure call)") {
		t.Fatalf("no interpreted tier with why in trace:\n%s", text)
	}
}

func TestTraceProcedureRejectionCode(t *testing.T) {
	sess := profSession(t)
	results, err := RunScript(sess, parser.MustParse("trace procedure copyNums;"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range results[len(results)-1].Rows {
		lines = append(lines, row[0].Str())
	}
	text := strings.Join(lines, "\n")
	if !strings.Contains(text, "verdict=rejected code="+string(core.ReasonPersistentDML)) {
		t.Fatalf("rejected loop missing its code:\n%s", text)
	}
}

func TestProfileNeverAttemptedWhile(t *testing.T) {
	// A cursor-style WHILE (conditioned on @@fetch_status) that does not
	// match the OPEN/FETCH/WHILE pattern: the profiler must report it as
	// never_attempted rather than silently skipping it.
	eng := engine.New()
	Install(eng)
	sess := eng.NewSession()
	setup := `
create table nums (n int);
insert into nums values (1), (2);
GO
create procedure oddloop() as
begin
  declare @n int;
  declare c cursor for select n from nums;
  open c;
  fetch next from c into @n;
  while @@fetch_status = 0
  begin
    fetch next from c into @n;
  end
  deallocate c;
end
`
	if _, err := RunScript(sess, parser.MustParse(setup)); err != nil {
		t.Fatalf("setup: %v", err)
	}
	prof, err := ProfileProcedure(sess, "oddloop")
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Loops) != 0 {
		t.Fatalf("pattern should not match (no CLOSE), loops = %d", len(prof.Loops))
	}
	if prof.NeverAttempted != 1 {
		t.Fatalf("NeverAttempted = %d, want 1", prof.NeverAttempted)
	}
	text := strings.Join(prof.Lines(), "\n")
	if !strings.Contains(text, "verdict=never_attempted code="+string(core.ReasonUnmatchedPattern)) {
		t.Fatalf("never_attempted line missing:\n%s", text)
	}
}
