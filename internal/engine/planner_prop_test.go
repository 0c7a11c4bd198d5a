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
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
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
	noDecor.Opts.DisableRules = plan.RuleDecorrelate

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

// accessSessions returns two sessions over eng: choose_access_path on (the
// cost model may pick a range or equality seek) and off (scans, plus the
// equality seek the FROM compiler takes on its own).
func accessSessions(eng *engine.Engine) (on, off *engine.Session) {
	on, off = eng.NewSession(), eng.NewSession()
	off.Opts.DisableRules = plan.RuleChooseAccessPath
	return on, off
}

// runAccess runs sql with the given parameters and variables and renders
// the rows in emission order (no canonicalizing: a seek must emit the rows
// in the order the scan does) and the error, "" when there is none.
func runAccess(t *testing.T, sess *engine.Session, sql string, params []sqltypes.Value, vars map[string]sqltypes.Value) ([]string, string) {
	t.Helper()
	ctx := sess.Ctx(nil, nil)
	ctx.Params = params
	ctx.Vars = func(name string) (sqltypes.Value, bool) {
		v, ok := vars[name]
		return v, ok
	}
	_, rows, err := sess.Query(parseSelect(t, sql), ctx)
	if err != nil {
		return nil, err.Error()
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out, ""
}

// explainAccess renders sql's plan under sess.
func explainAccess(t *testing.T, sess *engine.Session, sql string) string {
	t.Helper()
	lines, err := sess.ExplainQuery(parseSelect(t, sql), false, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return strings.Join(lines, "\n")
}

// TestSeekOperandErrorParity: a seek evaluates its key or bounds at Open,
// before it reads a row, while a filter evaluates an operand only on the
// rows that reach it. An operand that can raise must therefore stay in the
// filter, so the same query returns the same rows, or fails with the same
// error, whichever access path runs it.
func TestSeekOperandErrorParity(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	seedRange(t, eng, "w", 1000)
	if err := eng.CreateIndex("w", "k"); err != nil {
		t.Fatal(err)
	}
	on, off := accessSessions(eng)
	for _, tc := range []struct {
		sql     string
		wantErr bool
		onPath  string // the access path with choose_access_path on
		offPath string // and off
	}{
		// v = -7 rejects every row first, so no row reaches the division.
		{"select v from w where v = -7 and k >= 1/0", false, "Scan(", "Scan("},
		{"select v from w where v = -7 and k = 1/0", false, "Scan(", "Scan("},
		{"select v from w where v = -7 and k between 1/0 and 5", false, "Scan(", "Scan("},
		{"select v from w where v = -7 and 1/0 < k", false, "Scan(", "Scan("},
		// Alone, the first row raises it.
		{"select v from w where k >= 1/0", true, "Scan(", "Scan("},
		{"select v from w where k = 1/0", true, "Scan(", "Scan("},
		{"select v from w where k between 0 and 1/0", true, "Scan(", "Scan("},
		// Operands that cannot raise still seek; with the rule off nothing
		// seeks.
		{"select v from w where v = 3 and k between 990 and 999", false, "RangeSeek(", "Scan("},
		{"select v from w where k = 17", false, "IndexSeek(", "Scan("},
	} {
		wantRows, wantErr := runAccess(t, off, tc.sql, nil, nil)
		gotRows, gotErr := runAccess(t, on, tc.sql, nil, nil)
		if (gotErr != "") != tc.wantErr || gotErr != wantErr {
			t.Errorf("%s: error %q with choose_access_path, %q without; want an error: %v", tc.sql, gotErr, wantErr, tc.wantErr)
		} else if strings.Join(gotRows, ";") != strings.Join(wantRows, ";") {
			t.Errorf("%s: rows %v with choose_access_path, %v without", tc.sql, gotRows, wantRows)
		}
		for sess, path := range map[*engine.Session]string{on: tc.onPath, off: tc.offPath} {
			if plan := explainAccess(t, sess, tc.sql); !strings.Contains(plan, path) {
				t.Errorf("%s: plan has no %s:\n%s", tc.sql, path, plan)
			}
		}
	}
}

// betweenCase is one generated query with the values its `?` and `@var`
// operands take.
type betweenCase struct {
	sql    string
	params []sqltypes.Value
	vars   map[string]sqltypes.Value
	negate bool
}

// betweenBaseDay is 1995-01-01, the first day the date column holds.
var betweenBaseDay = sqltypes.MustDate("1995-01-01").Int()

// randomBetween emits `select … where col [NOT] BETWEEN a AND b AND p` (the
// conjuncts in either order) over table r(k int, d date, v int), k in
// [0, maxK). The bounds are drawn from literals, `?`, `@var`, NULL,
// lo > hi, float bounds on the int column and date-shaped strings on the
// date column; each non-negated case is narrow enough that the cost model
// prefers the range seek. p never raises.
func randomBetween(rng *rand.Rand, maxK int) betweenCase {
	c := betweenCase{negate: rng.Intn(3) == 0, vars: map[string]sqltypes.Value{}}
	lo := rng.Intn(maxK)
	hi := lo + rng.Intn(maxK/20+1)
	col, a, b := "k", fmt.Sprint(lo), fmt.Sprint(hi)
	switch rng.Intn(7) {
	case 0: // literals
	case 1: // parameters
		a, b = "?", "?"
		c.params = []sqltypes.Value{sqltypes.NewInt(int64(lo)), sqltypes.NewInt(int64(hi))}
	case 2: // variables
		a, b = "@lo", "@hi"
		c.vars["@lo"], c.vars["@hi"] = sqltypes.NewInt(int64(lo)), sqltypes.NewInt(int64(hi))
	case 3: // a NULL bound matches nothing
		switch rng.Intn(3) {
		case 0:
			a = "null"
		case 1:
			b = "null"
		default:
			a, b = "?", "null"
			c.params = []sqltypes.Value{sqltypes.NewInt(int64(lo))}
		}
	case 4: // lo > hi matches nothing
		a, b = fmt.Sprint(hi+1+rng.Intn(5)), fmt.Sprint(lo)
	case 5: // float bounds on the int column
		a, b = fmt.Sprintf("%d.5", lo), fmt.Sprintf("%d.5", hi)
	default: // date-shaped strings on the date column
		day := rng.Intn(365)
		col = "d"
		a = sqltypes.NewDate(betweenBaseDay + int64(day)).String()
		b = sqltypes.NewDate(betweenBaseDay + int64(day+rng.Intn(15))).String()
	}
	not := ""
	if c.negate {
		not = "not "
	}
	between := fmt.Sprintf("%s %sbetween %s and %s", col, not, a, b)
	other := []string{
		fmt.Sprintf("v >= %d", rng.Intn(10)),
		fmt.Sprintf("v <> %d", rng.Intn(10)),
		"v is not null", "k is not null", "d is not null",
	}[rng.Intn(5)]
	if rng.Intn(2) == 0 {
		between, other = other, between // only the BETWEEN holds `?`s
	}
	c.sql = fmt.Sprintf("select k, d, v from r where %s and %s", between, other)
	return c
}

// TestBetweenRangeSeekDifferential: over random tables with an index on k
// (and one on d), `col [NOT] BETWEEN a AND b` plus a second conjunct returns
// byte-identical rows, in the same order, and the same error with
// choose_access_path on and off, and EXPLAIN shows a RangeSeek exactly for
// the non-negated cases.
func TestBetweenRangeSeekDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for table := 0; table < 4; table++ {
		eng := engine.New()
		interp.Install(eng)
		tab, err := eng.CreateTable("r", storage.NewSchema(
			storage.Col("k", sqltypes.Int), storage.Col("d", sqltypes.Date), storage.Col("v", sqltypes.Int)))
		if err != nil {
			t.Fatal(err)
		}
		// Half the tables index before loading (maintenance), half after
		// (the sort-once build).
		indexFirst := table%2 == 0
		index := func() {
			for _, col := range []string{"k", "d"} {
				if err := eng.CreateIndex("r", col); err != nil {
					t.Fatal(err)
				}
			}
		}
		if indexFirst {
			index()
		}
		n := 200 + rng.Intn(800)
		maxK := n / 2
		for i := 0; i < n; i++ {
			row := []sqltypes.Value{
				sqltypes.NewInt(int64(rng.Intn(maxK))),
				sqltypes.NewDate(betweenBaseDay + int64(rng.Intn(365))),
				sqltypes.NewInt(int64(rng.Intn(10))),
			}
			if rng.Intn(15) == 0 {
				row[rng.Intn(3)] = sqltypes.Null
			}
			if err := tab.Insert(nil, row); err != nil {
				t.Fatal(err)
			}
		}
		if !indexFirst {
			index()
		}
		on, off := accessSessions(eng)
		for i := 0; i < 10; i++ {
			mut := fmt.Sprintf("update r set k = %d where k = %d", rng.Intn(maxK), rng.Intn(maxK))
			if rng.Intn(3) == 0 {
				mut = fmt.Sprintf("delete from r where k = %d", rng.Intn(maxK))
			}
			if _, err := interp.RunScript(on, parser.MustParse(mut)); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 60; q++ {
			c := randomBetween(rng, maxK)
			wantRows, wantErr := runAccess(t, off, c.sql, c.params, c.vars)
			gotRows, gotErr := runAccess(t, on, c.sql, c.params, c.vars)
			if gotErr != wantErr {
				t.Fatalf("table %d: %s: error %q with choose_access_path, %q without", table, c.sql, gotErr, wantErr)
			}
			if strings.Join(gotRows, "\n") != strings.Join(wantRows, "\n") {
				t.Fatalf("table %d: %s (params %v, vars %v):\nwith choose_access_path %v\nwithout %v",
					table, c.sql, c.params, c.vars, gotRows, wantRows)
			}
			if plan := explainAccess(t, on, c.sql); strings.Contains(plan, "RangeSeek(") == c.negate {
				t.Fatalf("table %d: %s: RangeSeek in plan = %v, want %v:\n%s",
					table, c.sql, c.negate, !c.negate, plan)
			}
		}
	}
}

// dmlDB makes table d(k int, v int, w int) with an index on k (none on w):
// n rows, k in [0, 100) with a NULL now and then, and one row with k = 17.
func dmlDB(t *testing.T, n int) *engine.Engine {
	t.Helper()
	eng := engine.New()
	interp.Install(eng)
	tab, err := eng.CreateTable("d", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int), storage.Col("w", sqltypes.Int)))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateIndex("d", "k"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		k := sqltypes.NewInt(int64(rng.Intn(100)))
		if i == n/2 {
			k = sqltypes.NewInt(17)
		} else if rng.Intn(20) == 0 {
			k = sqltypes.Null
		}
		if err := tab.Insert(nil, []sqltypes.Value{k, sqltypes.NewInt(int64(rng.Intn(10))), sqltypes.NewInt(int64(rng.Intn(10)))}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// runDML runs one INSERT, UPDATE or DELETE and returns the affected-row
// count, the error ("" when there is none) and the index seeks it made.
func runDML(t *testing.T, sess *engine.Session, sql string, params []sqltypes.Value, vars map[string]sqltypes.Value) (int, string, int64) {
	t.Helper()
	ctx := sess.Ctx(nil, nil)
	ctx.Params = params
	ctx.Vars = func(name string) (sqltypes.Value, bool) {
		v, ok := vars[name]
		return v, ok
	}
	seeks := sess.Stats.IndexSeeks.Load()
	var n int
	var err error
	switch st := parser.MustParse(sql)[0].(type) {
	case *ast.UpdateStmt:
		n, err = sess.Update(st, ctx)
	case *ast.DeleteStmt:
		n, err = sess.Delete(st, ctx)
	case *ast.InsertStmt:
		n, err = sess.Insert(st, ctx)
	default:
		t.Fatalf("not DML: %s", sql)
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return n, msg, sess.Stats.IndexSeeks.Load() - seeks
}

// TestDMLRowSourceDifferential: UPDATE and DELETE take their rows from the
// access path a SELECT with the same WHERE would choose, and still run the
// whole WHERE on each. Every shape runs on two identical databases, once as
// chosen and once with choose_access_path off (the scan), and must leave
// the same table, report the same affected-row count and fail the same way.
func TestDMLRowSourceDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		set    string // an UPDATE's SET list; the case runs as a DELETE too
		where  string
		params []sqltypes.Value
		vars   map[string]sqltypes.Value
		seek   bool   // choose_access_path seeks
		empty  bool   // the table has no rows
		setup  string // run first in the statement's session
		other  string // run first in a second session, rolled back after
		fails  bool   // the statement fails
		n      int    // if not 0, the affected-row count
	}{
		{name: "equality", where: "k = 17", seek: true},
		{name: "range", where: "k >= 40 and k < 45", seek: true},
		{name: "open range", where: "k > 95", seek: true},
		{name: "float bounds", where: "k >= 10.5 and k <= 12.5", seek: true},
		{name: "between", where: "k between 10 and 14", seek: true},
		{name: "equality plus residual", where: "v > 3 and k = 17", seek: true},
		{name: "between plus residual", where: "k between 10 and 30 and w <> v", seek: true},
		{name: "no index", where: "w = 5"},
		{name: "is null", where: "k is null"},
		{name: "null key", where: "k = null"},
		{name: "null bound", where: "k between null and 50"},
		{name: "param key", where: "k = ?", params: []sqltypes.Value{sqltypes.NewInt(17)}, seek: true},
		{name: "null param key", where: "k = ?", params: []sqltypes.Value{sqltypes.Null}},
		{name: "var key", where: "k = @x", vars: map[string]sqltypes.Value{"@x": sqltypes.NewInt(17)}, seek: true},
		{name: "var bounds", where: "k between @lo and @hi",
			vars: map[string]sqltypes.Value{"@lo": sqltypes.NewInt(60), "@hi": sqltypes.NewInt(63)}, seek: true},
		{name: "raising operand, empty table", where: "k = 1/0", empty: true},
		{name: "raising operand, full table", where: "k = 1/0", fails: true},
		{name: "raising residual", where: "v = -7 and k >= 1/0"},
		{name: "update moves the seek column", set: "k = k + 1", where: "k between 10 and 20", seek: true},
		{name: "update moves rows into its own range", set: "k = k + 3", where: "k >= 20 and k <= 30", seek: true},
		{name: "own uncommitted insert", where: "k = 500", seek: true,
			setup: "begin transaction; insert into d values (500, 1, 1), (500, 2, 2)", n: 2},
		{name: "concurrent write conflicts", where: "k = 17", seek: true,
			other: "begin transaction; update d set w = -1 where k = 17", fails: true},
	} {
		set := tc.set
		if set == "" {
			set = "v = v * 10 + 1, w = k"
		}
		for _, sql := range []string{"update d set " + set + " where " + tc.where, "delete from d where " + tc.where} {
			rows := 300
			if tc.empty {
				rows = 0
			}
			type outcome struct {
				n        int
				err      string
				contents string
				seeks    int64
			}
			var got [2]outcome
			for i, disable := range []plan.RuleSet{0, plan.RuleChooseAccessPath} {
				eng := dmlDB(t, rows)
				sess, other := eng.NewSession(), eng.NewSession()
				sess.Opts.DisableRules = disable
				for s, script := range map[*engine.Session]string{sess: tc.setup, other: tc.other} {
					if script != "" {
						if _, err := interp.RunScript(s, parser.MustParse(script)); err != nil {
							t.Fatalf("%s: %s: %v", tc.name, script, err)
						}
					}
				}
				o := &got[i]
				o.n, o.err, o.seeks = runDML(t, sess, sql, tc.params, tc.vars)
				if sess.InTxn() {
					if err := sess.CommitTxn(); err != nil {
						t.Fatalf("%s: commit: %v", tc.name, err)
					}
				}
				if other.InTxn() {
					other.RollbackTxn()
				}
				contents, _ := runAccess(t, sess, "select k, v, w from d", nil, nil)
				o.contents = strings.Join(contents, ";")
			}
			on, off := got[0], got[1]
			if on.n != off.n || on.err != off.err || on.contents != off.contents {
				t.Errorf("%s: %s: chosen %d rows, error %q; scan %d rows, error %q; same table: %v",
					tc.name, sql, on.n, on.err, off.n, off.err, on.contents == off.contents)
			}
			if off.seeks != 0 || (on.seeks > 0) != tc.seek {
				t.Errorf("%s: %s: %d seeks chosen, %d with the rule off; want a seek: %v", tc.name, sql, on.seeks, off.seeks, tc.seek)
			}
			if (on.err != "") != tc.fails || (tc.n != 0 && on.n != tc.n) {
				t.Errorf("%s: %s: %d rows, error %q; want %d rows, an error: %v", tc.name, sql, on.n, on.err, tc.n, tc.fails)
			}
		}
	}
}

// TestUpdateSeeksOneRow: an UPDATE by an indexed key reads the one row it
// changes, not the table.
func TestUpdateSeeksOneRow(t *testing.T) {
	var b strings.Builder
	b.WriteString("create table items (i_id int, i_nbids int);\ncreate index items_pk on items(i_id);\n")
	for i := 1; i <= 1000; i++ {
		fmt.Fprintf(&b, "insert into items values (%d, 0);\n", i)
	}
	sess := newDB(t, b.String())
	runRecorded(t, sess, "update items set i_nbids = i_nbids + 1 where i_id = 7")
	rows := query(t, sess, "select query, logical_reads from aggify_stat_statements")
	for _, r := range rows {
		if strings.HasPrefix(r[0].Str(), "update items") {
			if reads := r[1].Int(); reads != 1 {
				t.Fatalf("%s: logical_reads = %d, want 1", r[0].Str(), reads)
			}
			return
		}
	}
	t.Fatalf("no aggify_stat_statements row for the update: %v", rows)
}
