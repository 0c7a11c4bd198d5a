package server

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sort"
	"strconv"

	"aggify/internal/core"
	"aggify/internal/engine"
)

// DebugHandler builds the aggifyd debug mux (the -http listener):
//
//	/healthz        liveness probe ({"status":"ok"})
//	/metrics        Prometheus text exposition of the query-metrics registry
//	/debug/pprof/*  the standard Go profiler endpoints
//
// The handler reads the same registries the wire-level MsgStats reply does,
// so it can be attached to any mux or served standalone via ServeDebug.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug serves the debug handler on l until the listener closes.
func (s *Server) ServeDebug(l net.Listener) error {
	return http.Serve(l, s.DebugHandler())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// metricDef is one scalar line of the /metrics exposition. Keeping the
// whole registry in a slice (rather than inline calls) lets tests assert
// that every registered metric actually renders.
type metricDef struct {
	name, help string
	kind       string // "counter" or "gauge"
	value      int64
}

// metricDefs snapshots every scalar metric: the wire-level request
// registry, the transaction manager, the WAL, the fingerprint stats
// store, the plan store, and the Go heap.
func (s *Server) metricDefs() []metricDef {
	st := s.Stats()
	eng := s.eng
	txc := eng.TxnMgr.CounterSnapshot()
	stmts := eng.StmtStatsStore()
	pc := eng.PlanCacheStats()
	defs := []metricDef{
		{"aggifyd_connections_total", "Connections accepted.", "counter", st.Connections},
		{"aggifyd_requests_total", "Requests served.", "counter", st.Requests},
		{"aggifyd_execs_total", "Exec requests served.", "counter", st.Execs},
		{"aggifyd_queries_total", "Query requests served.", "counter", st.Queries},
		{"aggifyd_fetches_total", "Fetch requests served.", "counter", st.Fetches},
		{"aggifyd_cursors_opened_total", "Server-side cursors opened.", "counter", st.CursorsOpened},
		{"aggifyd_open_cursors", "Server-side cursors currently open.", "gauge", st.OpenCursors},
		{"aggifyd_bytes_in_total", "Request bytes received.", "counter", st.BytesIn},
		{"aggifyd_bytes_out_total", "Response bytes sent.", "counter", st.BytesOut},
		{"aggifyd_request_latency_p50_micros", "Median request latency upper bound (us).", "gauge", st.P50Micros},
		{"aggifyd_request_latency_p99_micros", "P99 request latency upper bound (us).", "gauge", st.P99Micros},
		{"aggifyd_slow_requests_total", "Requests over the slow-query threshold.", "counter", st.SlowCount},
		{"aggifyd_panics_total", "Requests that panicked and were contained at the connection boundary.", "counter", s.metrics.panics.Load()},
		{"aggifyd_txn_begins_total", "Transactions begun (explicit and implicit).", "counter", txc.Begins},
		{"aggifyd_txn_commits_total", "Transactions committed.", "counter", txc.Commits},
		{"aggifyd_txn_rollbacks_total", "Transactions rolled back.", "counter", txc.Rollbacks},
		{"aggifyd_txn_conflicts_total", "First-committer-wins write conflicts.", "counter", txc.Conflicts},
		{"aggifyd_checkpoints_total", "WAL checkpoints completed.", "counter", eng.Checkpoints()},
		{"aggifyd_stmt_fingerprints", "Distinct statement fingerprints tracked.", "gauge", int64(stmts.Len())},
		{"aggifyd_stmt_evictions_total", "Fingerprint entries evicted from the stats store.", "counter", stmts.Evictions()},
		{"aggifyd_plan_cache_entries", "Plans, scalar expressions and routine bodies in the plan store.", "gauge", int64(pc.Entries)},
		{"aggifyd_plan_cache_hits_total", "Plan-store lookups answered from the store.", "counter", pc.Hits},
		{"aggifyd_plan_cache_misses_total", "Plan-store lookups that had to compile.", "counter", pc.Misses},
		{"aggifyd_plan_cache_evictions_total", "Plan-store entries evicted by the capacity bound.", "counter", pc.Evictions},
	}
	var walBytes, walSynced, walRecords, walFsyncs int64
	if ws, _, ok := eng.WALStats(); ok {
		walBytes, walSynced = int64(ws.AppendedBytes), int64(ws.SyncedBytes)
		walRecords, walFsyncs = ws.Records, ws.Fsyncs
	}
	defs = append(defs,
		metricDef{"aggifyd_wal_bytes_total", "WAL bytes appended.", "counter", walBytes},
		metricDef{"aggifyd_wal_synced_bytes_total", "WAL bytes durably synced.", "counter", walSynced},
		metricDef{"aggifyd_wal_records_total", "WAL records appended.", "counter", walRecords},
		metricDef{"aggifyd_wal_fsyncs_total", "WAL fsync calls.", "counter", walFsyncs},
	)
	// runtime/metrics reads these without stopping the world.
	mem := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(mem)
	defs = append(defs,
		metricDef{"aggifyd_heap_live_bytes", "Heap bytes the last GC cycle marked live.", "gauge", int64(mem[0].Value.Uint64())},
		metricDef{"aggifyd_gc_cycles_total", "GC cycles completed.", "counter", int64(mem[1].Value.Uint64())},
	)
	// One counter per stable Aggify rejection code: how often the rewrite
	// analysis rejected (or, for unmatched_pattern, never attempted) a
	// cursor loop in this process. Every code is always present,
	// zero-valued, so dashboards can alert on shape changes.
	counts := core.ReasonCounts()
	for _, code := range core.AllReasonCodes() {
		defs = append(defs, metricDef{
			"aggifyd_aggify_reject_" + string(code) + "_total",
			"Cursor loops not aggified with reason code " + string(code) + ".",
			"counter", counts[code],
		})
	}
	return defs
}

// metricsTopK bounds the per-fingerprint statement series on /metrics. The
// full store is SQL-queryable via aggify_stat_statements; the exposition
// only carries the heaviest statements by total wall time.
const metricsTopK = 10

// handleMetrics renders the Prometheus text exposition format by hand — the
// format is three lines per metric and not worth a dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf []byte
	for _, d := range s.metricDefs() {
		buf = append(buf, "# HELP "+d.name+" "+d.help+"\n# TYPE "+d.name+" "+d.kind+"\n"+d.name+" "...)
		buf = strconv.AppendInt(buf, d.value, 10)
		buf = append(buf, '\n')
	}
	rows := s.eng.StmtStatsStore().Snapshot()
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalMicros > rows[j].TotalMicros })
	if len(rows) > metricsTopK {
		rows = rows[:metricsTopK]
	}
	stmtSeries := []struct {
		name, help string
		value      func(r engine.StmtStatRow) int64
	}{
		{"aggifyd_stmt_calls_total", "Statement executions by fingerprint.", func(r engine.StmtStatRow) int64 { return r.Calls }},
		{"aggifyd_stmt_micros_total", "Statement wall time by fingerprint (us).", func(r engine.StmtStatRow) int64 { return r.TotalMicros }},
		{"aggifyd_stmt_rows_total", "Rows returned by fingerprint.", func(r engine.StmtStatRow) int64 { return r.Rows }},
		{"aggifyd_stmt_logical_reads_total", "Logical reads by fingerprint.", func(r engine.StmtStatRow) int64 { return r.LogicalReads }},
	}
	for _, series := range stmtSeries {
		if len(rows) == 0 {
			break
		}
		buf = append(buf, "# HELP "+series.name+" "+series.help+"\n# TYPE "+series.name+" counter\n"...)
		for _, r := range rows {
			buf = append(buf, series.name+`{fingerprint="`...)
			buf = append(buf, fmt.Sprintf("%016x", r.Fingerprint)...)
			buf = append(buf, `"} `...)
			buf = strconv.AppendInt(buf, series.value(r), 10)
			buf = append(buf, '\n')
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf)
}
