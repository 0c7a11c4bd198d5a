package engine_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
)

// parseSelect returns the SELECT of a single-statement query script.
func parseSelect(t *testing.T, sql string) *ast.Select {
	t.Helper()
	stmts := parser.MustParse(sql)
	q, ok := stmts[0].(*ast.QueryStmt)
	if !ok || len(stmts) != 1 {
		t.Fatalf("not a single query: %s", sql)
	}
	return q.Query
}

const planCacheDB = `
create table pc (k int, v int);
create index idx_pc on pc(k) using ordered;
insert into pc values (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
`

// seedBig creates table `name` with 200 rows. On a table this size the
// cost model prefers a range seek over a scan for a narrow predicate
// (tiny tables legitimately pick the scan: log2(n)+1+sel*n beats n only
// once n is big enough).
func seedBig(t *testing.T, sess *engine.Session, name string, orderedIndex bool) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "create table %s (k int, v int);\n", name)
	if orderedIndex {
		fmt.Fprintf(&b, "create index idx_%s on %s(k) using ordered;\n", name, name)
	}
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "insert into %s values (%d, %d);\n", name, i, i*10)
	}
	if _, err := interp.RunScript(sess, parser.MustParse(b.String())); err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
}

// sameRows compares result rows value by value; reflect.DeepEqual would
// compare a string Value's data pointer.
func sameRows(a, b [][]sqltypes.Value) bool {
	return slices.EqualFunc(a, b, func(x, y []sqltypes.Value) bool {
		return slices.EqualFunc(x, y, sqltypes.Identical)
	})
}

// TestPlanCacheWarmHitSharedText: re-parsing the same query text must hit
// the text-keyed cache (fresh AST pointers every time) and return results
// identical to the cold run.
func TestPlanCacheWarmHitSharedText(t *testing.T) {
	sess := newDB(t, planCacheDB)
	const sql = "select k, v from pc where k >= 3 order by k"

	cold := query(t, sess, sql)
	misses, hits := sess.PlanCacheMisses(), sess.PlanCacheHits()
	if misses != 1 || hits != 0 {
		t.Fatalf("after cold run: hits=%d misses=%d, want 0/1", hits, misses)
	}
	for i := 0; i < 3; i++ {
		warm := query(t, sess, sql) // query() re-parses: new AST each time
		if !sameRows(cold, warm) {
			t.Fatalf("warm run %d diverged:\ncold: %v\nwarm: %v", i, cold, warm)
		}
	}
	if m := sess.PlanCacheMisses(); m != 1 {
		t.Fatalf("warm runs recompiled: misses=%d, want 1", m)
	}
	if h := sess.PlanCacheHits(); h != 3 {
		t.Fatalf("warm hits=%d, want 3", h)
	}
}

// TestPlanCacheDDLEviction: CREATE INDEX must drop every cached plan — a
// stale plan would keep scanning after the index exists.
func TestPlanCacheDDLEviction(t *testing.T) {
	sess := newDB(t, "")
	seedBig(t, sess, "pd", false)
	const sql = "select v from pd where k >= 195 order by v"

	before := query(t, sess, sql)
	if n := sess.Eng.PlanCacheLen(); n == 0 {
		t.Fatal("query did not populate the text-keyed plan cache")
	}
	if _, err := interp.RunScript(sess, parser.MustParse("create index idx_pd on pd(k) using ordered")); err != nil {
		t.Fatalf("create index: %v", err)
	}
	if n := sess.Eng.PlanCacheLen(); n != 0 {
		t.Fatalf("plan cache survived DDL: %d entries", n)
	}
	misses := sess.PlanCacheMisses()
	after := query(t, sess, sql)
	if sess.PlanCacheMisses() != misses+1 {
		t.Fatal("post-DDL query did not recompile")
	}
	if !sameRows(before, after) {
		t.Fatalf("results changed across DDL:\nbefore: %v\nafter: %v", before, after)
	}
	// The recompiled plan must actually use the new index.
	expl, err := sess.ExplainQuery(parseSelect(t, sql), false, sess.Ctx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(expl, "\n"), "RangeSeek(pd.k)") {
		t.Fatalf("post-DDL plan ignores the new index:\n%s", strings.Join(expl, "\n"))
	}
}

// TestPlanCacheStatsDriftReplan: once a table drifts PlanStaleThreshold
// committed mutations past a cached plan's stamp, the next lookup must
// recompile instead of serving the stale plan.
func TestPlanCacheStatsDriftReplan(t *testing.T) {
	sess := newDB(t, planCacheDB)
	q := parseSelect(t, "select count(*) from pc where k >= 2")

	p1, err := sess.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var drift strings.Builder
	for i := 0; i < engine.PlanStaleThreshold; i++ {
		fmt.Fprintf(&drift, "insert into pc values (%d, %d);\n", 100+i, i)
	}
	if _, err := interp.RunScript(sess, parser.MustParse(drift.String())); err != nil {
		t.Fatalf("drift inserts: %v", err)
	}
	misses := sess.PlanCacheMisses()
	p2, err := sess.PlanQuery(q, nil) // same AST: would be a 0-alloc hit on the node if fresh
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("stale plan served after stats drift")
	}
	if sess.PlanCacheMisses() != misses+1 {
		t.Fatal("drift replan not counted as a miss")
	}
	// Short of the threshold the plan must be reused: recompiling on every
	// mutation would make the cache pointless.
	p3, err := sess.PlanQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p2 {
		t.Fatal("plan not reused immediately after replan")
	}

	// On 2 000 rows the table's own drift rule is the larger bar: the plan
	// lives until a tenth of the rows could have changed.
	seedRange(t, sess.Eng, "pcd", 2000)
	if err := sess.Eng.CreateIndex("pcd", "k"); err != nil {
		t.Fatal(err)
	}
	tab, _ := sess.Eng.Table("pcd")
	bq := parseSelect(t, "select count(*) from pcd where k >= 1990")
	b1, err := sess.PlanQuery(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(int64(3000 + i)), sqltypes.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
		b2, err := sess.PlanQuery(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if replanned := b2 != b1; replanned != (i == 199) {
			t.Fatalf("after %d commits on 2 000 rows: replanned=%v, want %v", i+1, replanned, i == 199)
		}
	}
}

// TestPlanCacheOptionsIsolation: the same query text under different
// planner options must map to different cache entries, and disabling
// choose_access_path must reproduce the plain scan plan byte-identically.
func TestPlanCacheOptionsIsolation(t *testing.T) {
	sess := newDB(t, "")
	seedBig(t, sess, "pcb", true)
	const sql = "select sum(v) from pcb where k >= 190"

	explain := func() string {
		t.Helper()
		lines, err := sess.ExplainQuery(parseSelect(t, sql), false, sess.Ctx(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(lines, "\n")
	}

	withRule := explain()
	if !strings.Contains(withRule, "RangeSeek(pcb.k)") {
		t.Fatalf("cost model did not pick the range seek:\n%s", withRule)
	}
	sess.Opts.DisableRules = plan.RuleChooseAccessPath
	noRule := explain()
	if strings.Contains(noRule, "RangeSeek(") {
		t.Fatalf("disabled rule still fired:\n%s", noRule)
	}
	noRuleAgain := explain()
	if noRule != noRuleAgain {
		t.Fatalf("disabled-rule plan not byte-stable:\n%s\nvs\n%s", noRule, noRuleAgain)
	}
	sess.Opts.DisableRules = 0
	if again := explain(); again != withRule {
		t.Fatalf("re-enabled plan differs from original:\n%s\nvs\n%s", again, withRule)
	}

	// Both option variants are live in the cache: re-running each must hit.
	run := func() { query(t, sess, sql) }
	run()
	sess.Opts.DisableRules = plan.RuleChooseAccessPath
	run()
	hits, misses := sess.PlanCacheHits(), sess.PlanCacheMisses()
	sess.Opts.DisableRules = 0
	run()
	sess.Opts.DisableRules = plan.RuleChooseAccessPath
	run()
	if sess.PlanCacheMisses() != misses {
		t.Fatalf("warm option-keyed lookups recompiled: misses %d -> %d", misses, sess.PlanCacheMisses())
	}
	if sess.PlanCacheHits() != hits+2 {
		t.Fatalf("warm option-keyed lookups: hits %d -> %d, want +2", hits, sess.PlanCacheHits())
	}
}

// TestPlanCacheTempTablesNotShared: `select * from #t` renders the same
// text in every session but resolves to per-session tables, so the
// text-keyed tier must never serve one session's plan to another.
func TestPlanCacheTempTablesNotShared(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	s1, s2 := eng.NewSession(), eng.NewSession()
	for sess, val := range map[*engine.Session]string{s1: "1", s2: "2"} {
		script := "create table #t (n int);\ninsert into #t values (" + val + ");"
		if _, err := interp.RunScript(sess, parser.MustParse(script)); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	const sql = "select n from #t"
	if got := query(t, s1, sql)[0][0].Int(); got != 1 {
		t.Fatalf("session 1 sees n=%d, want 1", got)
	}
	// Warm in s1, then the same text in s2: must not reuse s1's plan.
	query(t, s1, sql)
	if got := query(t, s2, sql)[0][0].Int(); got != 2 {
		t.Fatalf("session 2 sees n=%d, want 2 (temp plan leaked across sessions)", got)
	}
	if n := eng.PlanCacheLen(); n != 0 {
		t.Fatalf("temp-table queries entered the shared text cache: %d entries", n)
	}
}

// TestStatStatementsPlanCacheColumns: the per-fingerprint hit/miss
// counters surface in aggify_stat_statements.
func TestStatStatementsPlanCacheColumns(t *testing.T) {
	sess := newDB(t, planCacheDB)
	const sql = "select v from pc where k = 1"
	for i := 0; i < 3; i++ {
		runRecorded(t, sess, sql)
	}
	rows := query(t, sess,
		"select plan_cache_hits, plan_cache_misses from aggify_stat_statements where query = 'select v from pc where k = ?'")
	if len(rows) != 1 {
		t.Fatalf("stat rows = %d, want 1", len(rows))
	}
	hits, misses := rows[0][0].Int(), rows[0][1].Int()
	if misses != 1 || hits != 2 {
		t.Fatalf("plan_cache_hits=%d plan_cache_misses=%d, want 2/1", hits, misses)
	}
}

// TestStatColumnsView: aggify_stat_columns exposes one row per histogram
// bucket per indexed column, with the bucket row counts.
func TestStatColumnsView(t *testing.T) {
	sess := newDB(t, planCacheDB+"create index idx_pcv on pc(v);\n")
	rows := query(t, sess,
		"select column_name, bucket_rows from aggify_stat_columns where table_name = 'pc' order by column_name, bucket")
	if len(rows) == 0 {
		t.Fatal("no aggify_stat_columns rows for pc")
	}
	perCol := map[string]int64{}
	for _, r := range rows {
		if !r[1].IsNull() {
			perCol[r[0].Str()] += r[1].Int()
		}
	}
	// Every committed row lands in exactly one bucket per column.
	if perCol["k"] != 5 || perCol["v"] != 5 {
		t.Fatalf("bucket_rows sums = %v, want 5 per column", perCol)
	}
}

// TestCreateIndexRefreshesStatistics: CREATE INDEX on a table whose
// statistics are cached gives the new column its histogram at once — in
// aggify_stat_columns and in the range-seek cost EXPLAIN prints — exactly
// as on a table whose statistics were never read.
func TestCreateIndexRefreshesStatistics(t *testing.T) {
	type view struct {
		sess    *engine.Session
		explain string
		sampled int64
	}
	look := func(warm bool) view {
		sess := newDB(t, "")
		seedRange(t, sess.Eng, "sc", 2000)
		if err := sess.Eng.CreateIndex("sc", "v"); err != nil {
			t.Fatal(err)
		}
		if warm {
			query(t, sess, "select count(*) from sc where v = 3") // caches the statistics
		}
		if _, err := interp.RunScript(sess, parser.MustParse("create index sc_k on sc(k)")); err != nil {
			t.Fatal(err)
		}
		return view{sess,
			explainAccess(t, sess, "select v from sc where k >= 1000"),
			query(t, sess, "select sampled from aggify_stat_columns where table_name = 'sc' and column_name = 'k'")[0][0].Int()}
	}
	cold, warm := look(false), look(true)
	if !strings.Contains(cold.explain, "RangeSeek(sc.k)") || cold.sampled != 2000 {
		t.Fatalf("cold table: sampled=%d, plan:\n%s", cold.sampled, cold.explain)
	}
	if warm.explain != cold.explain || warm.sampled != cold.sampled {
		t.Fatalf("statistics cached before CREATE INDEX: sampled=%d, plan:\n%s\nwant sampled=%d, plan:\n%s",
			warm.sampled, warm.explain, cold.sampled, cold.explain)
	}
	// The warm table's statistics were built once before the index and
	// once after it, the cold table's once.
	for _, tc := range []struct {
		v    view
		want int64
	}{{cold, 1}, {warm, 2}} {
		if got := query(t, tc.v.sess, "select stats_builds from aggify_stat_tables where name = 'sc'")[0][0].Int(); got != tc.want {
			t.Fatalf("stats_builds = %d, want %d", got, tc.want)
		}
	}
}
