package aggify_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"aggify/internal/ast"
	"aggify/internal/client"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/tpch"
	"aggify/internal/wire"
	"aggify/internal/workloads/realw"
)

// inlineShapes are the froid composition shapes (straight line, branches,
// early returns, defaults, transitive and recursive calls, a subquery body)
// and the three call-site repros inline_udf must answer like the call: an
// argument the body's own FROM would capture, a parameter whose argument
// needs a numeric coercion, and one that needs a string-to-date coercion.
const inlineShapes = `
create function ilStraight(@x int) returns int as
begin
  declare @y int = @x * 2;
  set @y = @y + 1;
  return @y;
end
GO
create function ilIfElse(@x int) returns int as
begin
  declare @y int;
  if @x > 0 set @y = @x; else set @y = 0 - @x;
  return @y;
end
GO
create function ilEarly(@x int) returns int as
begin
  if @x < 0 return 0;
  if @x > 100 return 100;
  return @x;
end
GO
create function ilBranchAssign(@lb int) returns int as
begin
  if @lb = -1
    set @lb = 42;
  return @lb * 10;
end
GO
create function ilDefault(@a int, @b int = 7) returns int as
begin
  return @a + @b;
end
GO
create function ilInner(@x int) returns int as begin return @x + 1; end
GO
create function ilOuter(@x int) returns int as begin return ilInner(@x) * 2; end
GO
create function ilRec(@x int) returns int as
begin
  if @x <= 0 return 0;
  return ilRec(@x - 1) + 1;
end
GO
create function ilMinCost(@k int) returns float as
begin
  declare @m float;
  set @m = (select min(ps_supplycost) from partsupp where ps_partkey = @k);
  return @m;
end
GO
create function nsupp(@k int) returns int as
begin
  return (select count(*) from partsupp where ps_partkey = @k);
end
GO
create function half(@x decimal(15,2)) returns float as
begin
  return @x / 2;
end
GO
create function plus90(@d date) returns date as
begin
  return @d + 90;
end
GO
create function ilTruncate(@s char(3)) returns varchar(10) as
begin
  return @s;
end
GO
create function ilBadArg(@x int) returns int as begin return @x; end
GO
create function ilSame(@x int) returns int as begin return @x; end
`

// inlineShapeQueries call the shapes above over TPC-H tables.
var inlineShapeQueries = []string{
	"select p_partkey, ilStraight(p_partkey), ilIfElse(p_partkey - 3), ilEarly(p_partkey * 30) from part where p_partkey <= 8",
	"select p_partkey, ilDefault(p_partkey), ilDefault(p_partkey, 1), ilOuter(p_partkey), ilBranchAssign(p_partkey - 2) from part where p_partkey <= 8",
	"select p_partkey, ilRec(3), ilMinCost(p_partkey) from part where p_partkey <= 8",
	"select p_partkey from part where ilStraight(p_partkey) > 9 and p_partkey < 20",
	"select ps_partkey, nsupp(ps_partkey) from partsupp where ps_partkey = 1",
	"select p.ps_partkey, nsupp(p.ps_partkey) from partsupp p where p.ps_partkey = 1",
	"select half(3), half(p_partkey) from part where p_partkey <= 3",
	"select plus90('1994-01-01')",
	"select ilTruncate('abcdef'), ilTruncate(p_name) from part where p_partkey <= 2",
	"select ilBadArg('x')",
	"select p_partkey, ilSame(p_partkey), ilSame(p_partkey) as named from part where p_partkey <= 2",
	"select *, ilSame(p_partkey) from part where p_partkey <= 2",
	"select q.col2 from (select p_partkey, ilSame(p_partkey) from part) q where q.col2 <= 2",
	"select q.k, ilMinCost(q.k) from (select p_partkey as k from part) q where q.k <= 5",
}

// loadInlineDB builds a TPC-H engine whose workload UDFs — the TPC-H
// queries' and the customer workloads' — are registered as Aggify rewrote
// them (loop-free), plus the inline shapes. It returns every driver query.
func loadInlineDB(t *testing.T) (*engine.Engine, []string) {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	if err := tpch.Load(eng, 0.002); err != nil {
		t.Fatal(err)
	}
	if err := realw.Load(eng, 0.05); err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession()
	var drivers []string
	register := func(setup string, funcs []string) {
		if _, err := interp.RunScript(sess, parser.MustParse(setup)); err != nil {
			t.Fatal(err)
		}
		for _, name := range funcs {
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
	}
	for _, q := range tpch.Queries() {
		register(q.Setup, q.Funcs)
		drivers = append(drivers, q.Driver(25))
	}
	for _, l := range realw.Loops() {
		register(l.Setup, l.Funcs)
		drivers = append(drivers, l.Driver(0))
	}
	register(inlineShapes, nil)
	return eng, append(drivers, inlineShapeQueries...)
}

// outcome is one statement's answer: its columns and rows, or the fact
// that it failed.
type outcome struct {
	cols  []string
	rows  [][]sqltypes.Value
	err   error
	reads int64 // logical reads, embedded runs only
}

// same reports whether two outcomes agree on column names, values, value
// kinds and error class (both succeed, or both fail).
func (o outcome) same(p outcome) bool {
	if (o.err == nil) != (p.err == nil) {
		return false
	}
	if fmt.Sprint(o.cols) != fmt.Sprint(p.cols) || len(o.rows) != len(p.rows) {
		return false
	}
	for i := range o.rows {
		if len(o.rows[i]) != len(p.rows[i]) {
			return false
		}
		for j := range o.rows[i] {
			a, b := o.rows[i][j], p.rows[i][j]
			if a.Kind() != b.Kind() || a.String() != b.String() {
				return false
			}
		}
	}
	return true
}

func (o outcome) String() string {
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	return fmt.Sprint(o.cols, o.rows)
}

// embeddedRun runs sql on a fresh session (with the temp tables the
// customer workloads write into) under the given rule mask.
func embeddedRun(t *testing.T, eng *engine.Engine, sql string, disable plan.RuleSet) outcome {
	t.Helper()
	sess := eng.NewSession()
	defer sess.Close()
	sess.Opts.DisableRules = disable
	if _, err := interp.RunScript(sess, parser.MustParse(realw.TempSetup)); err != nil {
		t.Fatal(err)
	}
	stmts, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Stats.LogicalReads.Load()
	cols, rows, err := sess.Query(stmts[0].(*ast.QueryStmt).Query, nil)
	return outcome{cols: cols, rows: rowValues(rows), err: err, reads: sess.Stats.LogicalReads.Load() - before}
}

func rowValues(rows []exec.Row) [][]sqltypes.Value {
	out := make([][]sqltypes.Value, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// serveEngine serves eng on loopback until the test ends.
func serveEngine(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != server.ErrServerClosed {
			t.Errorf("serve returned %v", err)
		}
	})
	return lis.Addr().String()
}

func tcpRun(t *testing.T, conn *client.Conn, sql string) outcome {
	t.Helper()
	res, err := conn.ExecResults(sql)
	if err != nil {
		return outcome{err: err}
	}
	if len(res.Sets) != 1 {
		t.Fatalf("%s: %d result sets", sql, len(res.Sets))
	}
	return outcome{cols: res.Sets[0].Columns, rows: res.Sets[0].Rows}
}

// TestInlineUDFDifferential runs every workload driver and inline shape
// with inline_udf on and off, embedded and over TCP (where the server runs
// its default rules, inline_udf on), and requires identical values, value
// kinds and error class. Every TPC-H driver must actually inline.
func TestInlineUDFDifferential(t *testing.T) {
	eng, queries := loadInlineDB(t)
	conn, err := client.Dial(serveEngine(t, eng), wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Exec(realw.TempSetup); err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		off := embeddedRun(t, eng, sql, plan.RuleInlineUDF)
		on := embeddedRun(t, eng, sql, 0)
		tcp := tcpRun(t, conn, sql)
		if !on.same(off) || !tcp.same(off) {
			t.Errorf("%s\n  inline_udf off: %v\n  inline_udf on:  %v\n  over TCP:       %v", sql, off, on, tcp)
		}
		// The inlined subqueries run once per outer row, on the access path
		// the body's query had (or a better one other rules now find).
		if on.reads > off.reads {
			t.Errorf("%s: %d logical reads inlined, %d called", sql, on.reads, off.reads)
		}
		if testing.Verbose() {
			t.Logf("%s\n%s", sql, strings.Join(explainLines(t, eng, sql), "\n"))
		}
	}
	for _, q := range tpch.Queries() {
		if lines := explainLines(t, eng, q.Driver(25)); !strings.Contains(lines[0], "inline_udf") {
			t.Errorf("%s driver did not inline:\n%s", q.ID, strings.Join(lines, "\n"))
		}
	}
}

func explainLines(t *testing.T, eng *engine.Engine, sql string) []string {
	t.Helper()
	sess := eng.NewSession()
	defer sess.Close()
	lines, err := sess.ExplainQuery(parser.MustParse(sql)[0].(*ast.QueryStmt).Query, false, nil)
	if err != nil {
		t.Fatalf("explain %s: %v", sql, err)
	}
	return lines
}

// TestInlinedBodyReplannedAfterCreateFunction: a statement prepared on a TCP
// connection inlines f's body into its plan. CREATE FUNCTION under the same
// name empties the plan store (every catalog mutator does), so the next
// execution of the same prepared statement compiles the new body.
func TestInlinedBodyReplannedAfterCreateFunction(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	if _, err := interp.RunScript(eng.NewSession(), parser.MustParse(`
create table t (a int);
insert into t values (1), (2), (3);
GO
create function f(@x int) returns int as begin return @x + 1; end`)); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(serveEngine(t, eng), wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stmt, err := conn.Prepare("select a, f(a) from t where a = ?")
	if err != nil {
		t.Fatal(err)
	}
	ask := func() int64 {
		t.Helper()
		row, err := stmt.QueryRow(sqltypes.NewInt(2))
		if err != nil {
			t.Fatal(err)
		}
		return row[1].Int()
	}
	if got := ask(); got != 3 {
		t.Fatalf("f(2) = %d, want 3", got)
	}
	if lines := explainLines(t, eng, "select a, f(a) from t where a = 2"); !strings.Contains(lines[0], "inline_udf") {
		t.Fatalf("f is not inlined:\n%s", strings.Join(lines, "\n"))
	}
	if err := conn.Exec("create function f(@x int) returns int as begin return @x * 10; end"); err != nil {
		t.Fatal(err)
	}
	if got := ask(); got != 20 {
		t.Fatalf("f(2) after CREATE FUNCTION = %d, want the new body's 20", got)
	}
}
