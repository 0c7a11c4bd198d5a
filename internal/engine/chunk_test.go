package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/txn"
)

// chunkTable creates cx(id int, a int, d date, f float) with n rows drawn
// by rowAt, committed at once.
func chunkTable(t *testing.T, eng *engine.Engine, n int, rowAt func(i int) []sqltypes.Value) *storage.Table {
	t.Helper()
	tab, err := eng.CreateTable("cx", storage.NewSchema(storage.Col("id", sqltypes.Int), storage.Col("a", sqltypes.Int),
		storage.Col("d", sqltypes.Date), storage.Col("f", sqltypes.Float)))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = rowAt(i)
	}
	if err := tab.InsertMany(nil, rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

// chunkRow draws row id with each value column NULL one time in eight.
func chunkRow(rng *rand.Rand, id int64) []sqltypes.Value {
	row := []sqltypes.Value{sqltypes.NewInt(id), sqltypes.Null, sqltypes.Null, sqltypes.Null}
	if rng.Intn(8) > 0 {
		row[1] = sqltypes.NewInt(int64(rng.Intn(100) - 50))
	}
	if rng.Intn(8) > 0 {
		row[2] = sqltypes.MustDate("1995-01-01")
		row[2] = sqltypes.NewDate(row[2].Int() + int64(rng.Intn(365)))
	}
	if rng.Intn(8) > 0 {
		row[3] = sqltypes.NewFloat(float64(rng.Intn(2000))/10 - 100)
	}
	return row
}

// chunkConjunct draws one filter term over cx: comparisons and BETWEENs on
// each chunked column against literals, parameters (params grows) and
// date strings, a few the kernels must decline or raise on, and one
// generic term.
func chunkConjunct(rng *rand.Rand, params *[]sqltypes.Value) string {
	param := func(v sqltypes.Value) string { *params = append(*params, v); return "?" }
	ops := []string{"<", "<=", "=", "<>", ">", ">="}
	op := ops[rng.Intn(len(ops))]
	date := func() string { return fmt.Sprintf("'1995-%02d-%02d'", 1+rng.Intn(12), 1+rng.Intn(28)) }
	ival := func() int { return rng.Intn(100) - 50 }
	switch rng.Intn(14) {
	case 0:
		return fmt.Sprintf("a %s %d", op, ival())
	case 1:
		return fmt.Sprintf("a %s %s", op, param(sqltypes.NewInt(int64(ival()))))
	case 2:
		lo := ival()
		return fmt.Sprintf("a between %d and %d", lo, lo+rng.Intn(40))
	case 3:
		lo := ival()
		return fmt.Sprintf("a not between %s and %d", param(sqltypes.NewInt(int64(lo))), lo+rng.Intn(40))
	case 4:
		return fmt.Sprintf("d %s %s", op, date())
	case 5:
		d := sqltypes.MustDate("1995-01-01")
		return fmt.Sprintf("d %s %s", op, param(sqltypes.NewDate(d.Int()+int64(rng.Intn(365)))))
	case 6:
		return fmt.Sprintf("d between %s and %s + %d", date(), date(), rng.Intn(60))
	case 7:
		return fmt.Sprintf("d %s 'not a date'", op)
	case 8:
		return fmt.Sprintf("f %s %d", op, ival())
	case 9:
		return fmt.Sprintf("f between %s and %d.5", param(sqltypes.NewFloat(float64(ival()))), ival()+30)
	case 10:
		return fmt.Sprintf("f %s %d.25", op, ival())
	case 11:
		// An invariant that raises at the first row reaching it.
		return fmt.Sprintf("a %s 10 / %s", op, param(sqltypes.NewInt(int64(rng.Intn(2)))))
	case 12:
		return fmt.Sprintf("a %s %s", op, param(sqltypes.Null))
	}
	return "a + 1 > id % 7"
}

// runChunkQuery runs sql with params at snap (nil = a fresh statement
// snapshot) and renders its rows in order, its error text and the logical
// reads it charged.
func runChunkQuery(t *testing.T, sess *engine.Session, sql string, params []sqltypes.Value, snap *txn.Snapshot) string {
	t.Helper()
	ctx := sess.Ctx(nil, nil)
	ctx.Params = params
	ctx.Snap = snap
	reads := sess.Stats.LogicalReads.Load()
	_, rows, err := sess.Query(parseSelect(t, sql), ctx)
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte(';')
	}
	if err != nil {
		fmt.Fprintf(&b, " error: %v", err)
	}
	fmt.Fprintf(&b, " reads=%d", sess.Stats.LogicalReads.Load()-reads)
	return b.String()
}

// TestChunkedScanDifferential compares scans that reject rows from typed
// column chunks (choose_access_path on) with scans that load every row
// (the rule off) over random Int, Date and Float columns with NULLs, while
// random inserts, updates, deletes, rollbacks, vacuums and truncates run
// between the queries. Every query reads at a fresh snapshot, at an old
// pinned one and inside a transaction with uncommitted writes in the
// scanned chunks, twice with the rule on (the first run fills chunks); the
// rows, their order, the error text and the logical reads must agree.
func TestChunkedScanDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng := engine.New()
			interp.Install(eng)
			nextID := int64(0)
			newRow := func() []sqltypes.Value { nextID++; return chunkRow(rng, nextID) }
			tab := chunkTable(t, eng, 2*storage.ChunkSlots+500, func(int) []sqltypes.Value { return newRow() })
			on, off := eng.NewSession(), eng.NewSession()
			off.Opts.DisableRules = plan.RuleChooseAccessPath
			mgr := eng.TxnMgr
			write := func(tx *txn.Txn) {
				n := tab.SlotCount()
				rid := rng.Intn(max(n, 1))
				switch op := rng.Intn(10); {
				case op < 2 || n == 0:
					_ = tab.Insert(tx, newRow())
				case op < 8:
					_ = tab.Update(tx, rid, newRow())
				default:
					_ = tab.Delete(tx, rid)
				}
			}
			var old *txn.Snapshot
			var open *txn.Txn
			defer func() {
				if open != nil {
					open.Rollback()
				}
				if old != nil {
					old.Release()
				}
			}()
			for step := 0; step < 40; step++ {
				switch op := rng.Intn(12); {
				case op < 4:
					for i := rng.Intn(20); i >= 0; i-- {
						write(nil)
					}
				case op < 6:
					tx := mgr.Begin()
					for i := rng.Intn(6); i >= 0; i-- {
						write(tx)
					}
					tx.Rollback()
				case op < 7:
					if old != nil {
						old.Release()
					}
					old = mgr.Acquire()
				case op < 9:
					if open != nil {
						_ = open.Commit()
					}
					open = mgr.Begin()
					for i := rng.Intn(5); i >= 0; i-- {
						write(open)
					}
				case op < 10:
					eng.Vacuum()
				case op < 11 && open == nil && rng.Intn(3) == 0:
					if err := tab.Truncate(nil); err != nil {
						t.Fatal(err)
					}
					for i := rng.Intn(storage.ChunkSlots + 300); i > 0; i-- {
						write(nil)
					}
				default:
					write(nil)
				}
				snaps := map[string]*txn.Snapshot{"fresh": nil}
				if old != nil {
					snaps["old"] = old
				}
				if open != nil {
					snaps["txn"] = open.Snapshot()
				}
				for q := 0; q < 3; q++ {
					var params []sqltypes.Value
					terms := []string{chunkConjunct(rng, &params)}
					for i := rng.Intn(3); i > 0; i-- {
						terms = append(terms, chunkConjunct(rng, &params))
					}
					cols := "id, a, d, f"
					if rng.Intn(3) == 0 {
						cols = "count(*), sum(a)"
					}
					sql := fmt.Sprintf("select %s from cx where %s", cols, strings.Join(terms, " and "))
					for name, snap := range snaps {
						want := runChunkQuery(t, off, sql, params, snap)
						for run := 1; run <= 2; run++ {
							if got := runChunkQuery(t, on, sql, params, snap); got != want {
								t.Fatalf("step %d, %s snapshot, run %d: %s\nchunked: %s\nrows:    %s", step, name, run, sql, got, want)
							}
						}
					}
				}
			}
			if tab.ChunkRejects() == 0 {
				t.Error("no scan rejected a row from a chunk")
			}
		})
	}
}

// TestChunkedScanFollowsAccessPathRule: a second filtered scan rejects
// rows from the column chunks the first one built when choose_access_path
// is on, and rejects none, loading every row, with the rule off; the plan
// reads the same either way.
func TestChunkedScanFollowsAccessPathRule(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	rng := rand.New(rand.NewSource(7))
	tab := chunkTable(t, eng, 5000, func(i int) []sqltypes.Value { return chunkRow(rng, int64(i)) })
	const sql = "select count(*) from cx where d >= ? and d < ? and a > -40"
	from := sqltypes.MustDate("1995-03-01")
	params := []sqltypes.Value{from, sqltypes.NewDate(from.Int() + 90)}
	var plans [2]string
	for i, disable := range []plan.RuleSet{plan.RuleChooseAccessPath, 0} {
		sess := eng.NewSession()
		sess.Opts.DisableRules = disable
		p, err := sess.PlanQuery(parseSelect(t, sql), nil)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p.Explain.String()
		first := runChunkQuery(t, sess, sql, params, nil)
		before := tab.ChunkRejects()
		if second := runChunkQuery(t, sess, sql, params, nil); second != first {
			t.Fatalf("rules %b off: second scan %s, first %s", disable, second, first)
		}
		rejected := tab.ChunkRejects() - before
		switch {
		case disable != 0 && rejected != 0:
			t.Errorf("with choose_access_path off the second scan rejected %d rows from chunks, want 0", rejected)
		case disable == 0 && rejected < 4000:
			t.Errorf("with choose_access_path on the second scan rejected %d of 5000 rows from chunks, want most", rejected)
		}
	}
	if plans[0] != plans[1] {
		t.Errorf("plans differ:\n%s\n%s", plans[0], plans[1])
	}
}

// TestChunkedScanConcurrentWriter runs one compiled plan from 8 sessions
// while a writer commits pairs of updates that move one row into the
// scanned date range and another out of it, so every snapshot counts the
// same rows. Under -race a chunk read while a writer links a version is a
// reported race; without the generation check, a wrong count.
func TestChunkedScanConcurrentWriter(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	const n = 4000
	base := sqltypes.MustDate("1995-01-01").Int()
	// Even ids sit inside [base, base+100), odd ids after it.
	dateOf := func(in bool, i int) sqltypes.Value {
		if in {
			return sqltypes.NewDate(base + int64(i%100))
		}
		return sqltypes.NewDate(base + 100 + int64(i%100))
	}
	rowOf := func(id int, in bool) []sqltypes.Value {
		return []sqltypes.Value{sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(id % 50)), dateOf(in, id), sqltypes.NewFloat(float64(id))}
	}
	tab := chunkTable(t, eng, n, func(i int) []sqltypes.Value { return rowOf(i, i%2 == 0) })
	params := []sqltypes.Value{sqltypes.NewDate(base), sqltypes.NewDate(base + 100)}
	// The plan is compiled once and run directly: the writer's commits
	// drift the statistics, which would replan a cache lookup.
	warm := eng.NewSession()
	p, err := warm.PlanQuery(parseSelect(t, "select count(*) from cx where d >= ? and d < ?"), nil)
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()

	var stop atomic.Bool
	var writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		in := make([]bool, n)
		for i := range in {
			in[i] = i%2 == 0
		}
		for !stop.Load() {
			x, y := rng.Intn(n), rng.Intn(n)
			if in[x] == in[y] {
				continue
			}
			tx := eng.TxnMgr.Begin()
			if tab.Update(tx, x, rowOf(x, !in[x])) != nil || tab.Update(tx, y, rowOf(y, !in[y])) != nil {
				tx.Rollback()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
			in[x], in[y] = !in[x], !in[y]
			writes.Add(1)
			if writes.Load()%64 == 0 {
				eng.MaybeVacuum()
			}
		}
	}()
	var scans sync.WaitGroup
	for w := 0; w < 8; w++ {
		scans.Add(1)
		go func(w int) {
			defer scans.Done()
			sess := eng.NewSession()
			defer sess.Close()
			for i := 0; i < 40; i++ {
				ctx := sess.Ctx(nil, nil)
				ctx.Params = params
				release := sess.PinRead(ctx)
				rows, err := p.Run(ctx)
				release()
				if err != nil {
					t.Errorf("scanner %d: %v", w, err)
					return
				}
				if got := rows[0][0].Int(); got != n/2 {
					t.Errorf("scanner %d, scan %d: count %d, want %d", w, i, got, n/2)
					return
				}
			}
		}(w)
	}
	scans.Wait()
	stop.Store(true)
	wg.Wait()
	if writes.Load() == 0 {
		t.Error("the writer committed nothing while the scans ran")
	}
	if tab.ChunkRejects() == 0 {
		t.Error("no scan rejected a row from a chunk")
	}
}

// TestDateStringOperandParsedOnce: a date-shaped string compared with a
// Date column answers as the same Date does, through the scan kernels,
// the generic filter and DML, and a string that does not parse is unknown
// exactly as before: no row for =, <, BETWEEN, and none for their NOT.
func TestDateStringOperandParsedOnce(t *testing.T) {
	sess := newDB(t, `
create table ds (k int, d date);
insert into ds values (1, '1995-01-01'), (2, '1995-02-15'), (3, null), (4, '1995-03-31'), (5, '1995-04-01');`)
	for _, tc := range []struct{ str, date string }{
		{"select k from ds where d >= '1995-02-15' and d < '1995-04-01'", "select k from ds where d >= @a and d < @d"},
		{"select k from ds where d between '1995-02-01' and '1995-03-31'", "select k from ds where d between @a2 and @b"},
		{"select k from ds where d not between '1995-02-01' and '1995-03-31'", "select k from ds where d not between @a2 and @b"},
		{"select k from ds where d in ('1995-01-01', '1995-04-01')", "select k from ds where d in (@c, @d)"},
		{"select k from ds where d = 'garbage'", "select k from ds where 1 = 0"},
		{"select k from ds where d < 'garbage' or k = 1", "select k from ds where k = 1"},
		{"select k from ds where not (d >= 'garbage')", "select k from ds where 1 = 0"},
		{"select k from ds where d between '1995-01-01' and 'garbage'", "select k from ds where 1 = 0"},
		{"select k from ds where d not between '1995-02-01' and 'garbage'", "select k from ds where k = 1"},
	} {
		const decl = "declare @a date = '1995-02-15'; declare @a2 date = '1995-02-01'; declare @b date = '1995-03-31'; " +
			"declare @c date = '1995-01-01'; declare @d date = '1995-04-01'; "
		var got [2]string
		for i, sql := range []string{tc.str, tc.date} {
			res, err := interp.RunScript(sess, parser.MustParse(decl+sql))
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			got[i] = renderRows(res[len(res)-1].Rows)
		}
		if got[0] != got[1] {
			t.Errorf("%s: %s; as dates (%s): %s", tc.str, got[0], tc.date, got[1])
		}
	}
	if _, err := interp.RunScript(sess, parser.MustParse("update ds set k = k + 10 where d >= '1995-02-15' and d < '1995-04-01'")); err != nil {
		t.Fatal(err)
	}
	if got := renderRows(query(t, sess, "select k from ds")); got != "1;12;3;14;5" {
		t.Errorf("after the UPDATE by date string: %s, want 1;12;3;14;5", got)
	}
}

// renderRows renders rows in order, a row's cells joined by |.
func renderRows(rows []exec.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return strings.Join(out, ";")
}
