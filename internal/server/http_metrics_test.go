package server

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/parser"
)

// TestMetricsExposesEveryRegisteredMetric renders /metrics and asserts that
// every metric in the registry actually appears in the exposition — the
// guard that keeps metricDefs and the rendered text from drifting apart as
// counters are added.
func TestMetricsExposesEveryRegisteredMetric(t *testing.T) {
	s := New(engine.New())
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("/metrics = %d", w.Code)
	}
	body := w.Body.String()
	defs := s.metricDefs()
	if len(defs) == 0 {
		t.Fatal("metricDefs returned no metrics")
	}
	for _, d := range defs {
		if !strings.Contains(body, "\n"+d.name+" ") && !strings.HasPrefix(body, d.name+" ") {
			t.Errorf("/metrics missing sample line for %s", d.name)
		}
		if !strings.Contains(body, "# TYPE "+d.name+" "+d.kind+"\n") {
			t.Errorf("/metrics missing TYPE line for %s (%s)", d.name, d.kind)
		}
		if !strings.Contains(body, "# HELP "+d.name+" ") {
			t.Errorf("/metrics missing HELP line for %s", d.name)
		}
	}
	// The scalar registry is exactly this list plus one counter per Aggify
	// rejection code: a series added or dropped must show up here.
	want := map[string]bool{}
	for _, name := range []string{
		"aggifyd_connections_total", "aggifyd_requests_total",
		"aggifyd_execs_total", "aggifyd_queries_total", "aggifyd_fetches_total",
		"aggifyd_cursors_opened_total", "aggifyd_open_cursors",
		"aggifyd_bytes_in_total", "aggifyd_bytes_out_total",
		"aggifyd_request_latency_p50_micros", "aggifyd_request_latency_p99_micros",
		"aggifyd_slow_requests_total", "aggifyd_panics_total",
		"aggifyd_txn_begins_total", "aggifyd_txn_commits_total",
		"aggifyd_txn_rollbacks_total", "aggifyd_txn_conflicts_total",
		"aggifyd_checkpoints_total", "aggifyd_stmt_fingerprints",
		"aggifyd_stmt_evictions_total",
		"aggifyd_plan_cache_entries", "aggifyd_plan_cache_hits_total",
		"aggifyd_plan_cache_misses_total", "aggifyd_plan_cache_evictions_total",
		"aggifyd_wal_bytes_total", "aggifyd_wal_synced_bytes_total",
		"aggifyd_wal_records_total", "aggifyd_wal_fsyncs_total",
		"aggifyd_heap_live_bytes", "aggifyd_gc_cycles_total",
	} {
		want[name] = true
	}
	for _, code := range core.AllReasonCodes() {
		want["aggifyd_aggify_reject_"+string(code)+"_total"] = true
	}
	for _, d := range defs {
		if !want[d.name] {
			t.Errorf("metric %s registered in metricDefs but not expected", d.name)
		}
		delete(want, d.name)
	}
	for name := range want {
		t.Errorf("metric %s not registered in metricDefs", name)
	}
}

// TestMetricsHeap: after a collection the heap gauges read the runtime's
// live heap and GC count, not zero.
func TestMetricsHeap(t *testing.T) {
	runtime.GC()
	vals := map[string]int64{}
	for _, d := range New(engine.New()).metricDefs() {
		vals[d.name] = d.value
	}
	if vals["aggifyd_heap_live_bytes"] <= 0 || vals["aggifyd_gc_cycles_total"] <= 0 {
		t.Fatalf("heap live %d B, GC cycles %d: want both > 0",
			vals["aggifyd_heap_live_bytes"], vals["aggifyd_gc_cycles_total"])
	}
}

// TestMetricsStatementTopK: after running statements through a backend, the
// exposition carries per-fingerprint series for the hottest statements.
func TestMetricsStatementTopK(t *testing.T) {
	eng := engine.New()
	s := New(eng)
	b := NewBackend(eng)
	defer b.Close()
	if _, err := b.Exec("create table t (n int); insert into t values (1); select n from t"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		`aggifyd_stmt_calls_total{fingerprint="`,
		`aggifyd_stmt_micros_total{fingerprint="`,
		`aggifyd_stmt_rows_total{fingerprint="`,
		`aggifyd_stmt_logical_reads_total{fingerprint="`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
	// The SELECT was compiled and is in the plan store, by node and by text.
	for _, want := range []string{"\naggifyd_plan_cache_entries 2\n", "\naggifyd_plan_cache_misses_total 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsAggifyRejectCounters: every stable Aggify rejection code gets
// a counter in the exposition, present even at zero, and a rejection
// observed by the core analysis shows up in the rendered value.
func TestMetricsAggifyRejectCounters(t *testing.T) {
	s := New(engine.New())
	render := func() string {
		req := httptest.NewRequest("GET", "/metrics", nil)
		w := httptest.NewRecorder()
		s.DebugHandler().ServeHTTP(w, req)
		return w.Body.String()
	}
	body := render()
	for _, code := range core.AllReasonCodes() {
		name := "aggifyd_aggify_reject_" + string(code) + "_total"
		if !strings.Contains(body, "\n"+name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	before := core.ReasonCounts()[core.ReasonPersistentDML]
	fn := parser.MustParse(`
create function f() returns int as
begin
  declare @n int;
  declare c cursor for select n from sink;
  open c;
  fetch next from c into @n;
  while @@fetch_status = 0
  begin
    insert into sink values (@n);
    fetch next from c into @n;
  end
  close c;
  deallocate c;
  return 0;
end`)[0].(*ast.CreateFunction)
	if _, res, err := core.TransformFunction(fn, core.Options{}); err != nil || len(res.Skipped) != 1 {
		t.Fatalf("transform: err=%v skipped=%v", err, res.Skipped)
	}
	after := core.ReasonCounts()[core.ReasonPersistentDML]
	if after != before+1 {
		t.Fatalf("persistent_dml counter = %d, want %d", after, before+1)
	}
	if !strings.Contains(render(), fmt.Sprintf("\naggifyd_aggify_reject_persistent_dml_total %d", after)) {
		t.Fatal("rendered counter did not pick up the rejection")
	}
}
