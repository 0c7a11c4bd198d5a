package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aggify/internal/ast"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Virtual system tables: the aggify_stat_* views. Each resolves like an
// ordinary table through the planner catalog, but materializes a fresh
// unmanaged snapshot of engine telemetry at plan time. Because they flow
// through plan.Compile as plain *storage.Table scans, every query shape —
// filters, ORDER BY, aggregates, joins, EXPLAIN — works over them
// unchanged, embedded, over TCP, and in sqlsh, with zero new wire
// messages.

// SystemTablePrefix marks system-view names; CREATE TABLE rejects it.
const SystemTablePrefix = "aggify_stat_"

// System view names.
const (
	StatStatementsTable = SystemTablePrefix + "statements"
	StatActivityTable   = SystemTablePrefix + "activity"
	StatTablesTable     = SystemTablePrefix + "tables"
	StatWALTable        = SystemTablePrefix + "wal"
	StatColumnsTable    = SystemTablePrefix + "columns"
)

// IsSystemTable reports whether name (already lower-cased by callers)
// names one of the aggify_stat_* views.
func IsSystemTable(name string) bool {
	switch name {
	case StatStatementsTable, StatActivityTable, StatTablesTable, StatWALTable, StatColumnsTable:
		return true
	}
	return false
}

// systemTable materializes a point-in-time snapshot of the named view as
// an unmanaged table (mutations apply directly, scans need no snapshot —
// exactly how session temp tables already execute).
func (e *Engine) systemTable(name string) (*storage.Table, error) {
	switch name {
	case StatStatementsTable:
		return e.statStatements(), nil
	case StatActivityTable:
		return e.statActivity(), nil
	case StatTablesTable:
		return e.statTables(), nil
	case StatWALTable:
		return e.statWAL(), nil
	case StatColumnsTable:
		return e.statColumns(), nil
	}
	return nil, fmt.Errorf("engine: no system table %s", name)
}

func hexFP(fp uint64) sqltypes.Value {
	return sqltypes.NewString(fmt.Sprintf("%016x", fp))
}

var (
	strCol = func(name string, n int) storage.Column { return storage.Col(name, sqltypes.VarChar(n)) }
	intCol = func(name string) storage.Column { return storage.Col(name, sqltypes.BigInt) }
)

// statStatements renders the fingerprint store, sorted by fingerprint.
func (e *Engine) statStatements() *storage.Table {
	t := storage.NewTable(StatStatementsTable, storage.NewSchema(
		strCol("fingerprint", 16),
		strCol("query", 4096),
		intCol("calls"),
		intCol("errors"),
		intCol("total_micros"),
		intCol("min_micros"),
		intCol("max_micros"),
		intCol("rows"),
		intCol("logical_reads"),
		intCol("wal_bytes"),
		intCol("conflicts"),
		intCol("query_execs"),
		intCol("rewritten"),
		intCol("plan_cache_hits"),
		intCol("plan_cache_misses"),
	))
	for _, r := range e.stmtStats.Snapshot() {
		t.Insert(nil, []sqltypes.Value{
			hexFP(r.Fingerprint),
			sqltypes.NewString(r.Query),
			sqltypes.NewInt(r.Calls),
			sqltypes.NewInt(r.Errors),
			sqltypes.NewInt(r.TotalMicros),
			sqltypes.NewInt(r.MinMicros),
			sqltypes.NewInt(r.MaxMicros),
			sqltypes.NewInt(r.Rows),
			sqltypes.NewInt(r.LogicalReads),
			sqltypes.NewInt(r.WALBytes),
			sqltypes.NewInt(r.Conflicts),
			sqltypes.NewInt(r.QueryExecs),
			sqltypes.NewInt(r.Rewritten),
			sqltypes.NewInt(r.PlanHits),
			sqltypes.NewInt(r.PlanMisses),
		})
	}
	return t
}

// statActivity renders the live-session registry. The querying session
// itself appears as active — it is running this very statement.
func (e *Engine) statActivity() *storage.Table {
	t := storage.NewTable(StatActivityTable, storage.NewSchema(
		intCol("session_id"),
		strCol("state", 16),
		strCol("fingerprint", 16),
		strCol("query", 4096),
		intCol("elapsed_micros"),
		intCol("epoch"),
		intCol("in_txn"),
		intCol("cursors"),
	))
	now := time.Now().UnixNano()
	for _, s := range e.Sessions() {
		state := "idle"
		elapsed := int64(0)
		if start := s.stmtStart.Load(); start != 0 {
			state = "active"
			elapsed = (now - start) / 1000
			if elapsed < 0 {
				elapsed = 0
			}
		}
		fp := s.curFP.Load()
		query := ""
		if fp != 0 {
			// Best-effort: the template lands in the store when the
			// statement finishes; a first-ever execution shows "".
			query, _ = e.stmtStats.Lookup(fp)
		}
		inTxn := int64(0)
		if s.inTxn.Load() {
			inTxn = 1
		}
		t.Insert(nil, []sqltypes.Value{
			sqltypes.NewInt(int64(s.ID)),
			sqltypes.NewString(state),
			hexFP(fp),
			sqltypes.NewString(query),
			sqltypes.NewInt(elapsed),
			sqltypes.NewInt(int64(s.curEpoch.Load())),
			sqltypes.NewInt(inTxn),
			sqltypes.NewInt(s.cursorsOpen.Load()),
		})
	}
	return t
}

// statTables renders per-table storage shape: live rows, slots, version-
// chain length, reclaimable garbage, and how often statistics were built.
func (e *Engine) statTables() *storage.Table {
	t := storage.NewTable(StatTablesTable, storage.NewSchema(
		strCol("name", 128),
		intCol("rows"),
		intCol("slots"),
		intCol("versions"),
		intCol("garbage"),
		intCol("indexes"),
		intCol("stats_builds"),
	))
	tables := e.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, tab := range tables {
		cs := tab.ChainStats()
		t.Insert(nil, []sqltypes.Value{
			sqltypes.NewString(tab.Name),
			sqltypes.NewInt(int64(tab.RowCount())),
			sqltypes.NewInt(int64(tab.SlotCount())),
			sqltypes.NewInt(cs.Versions),
			sqltypes.NewInt(cs.Garbage),
			sqltypes.NewInt(int64(len(tab.IndexColumns()))),
			sqltypes.NewInt(tab.StatsBuilds()),
		})
	}
	return t
}

// statWAL renders one row of durability and transaction-manager counters.
// In-memory engines report enabled=0 with zeroed WAL columns; the txn
// counters are always live.
func (e *Engine) statWAL() *storage.Table {
	t := storage.NewTable(StatWALTable, storage.NewSchema(
		intCol("enabled"),
		strCol("mode", 16),
		intCol("wal_bytes"),
		intCol("wal_synced"),
		intCol("wal_records"),
		intCol("wal_fsyncs"),
		intCol("checkpoints"),
		intCol("epoch"),
		intCol("live_snapshots"),
		intCol("txn_begins"),
		intCol("txn_commits"),
		intCol("txn_rollbacks"),
		intCol("txn_conflicts"),
	))
	enabled, mode := int64(0), ""
	var wb, wsync, wrec, wfs int64
	if st, m, ok := e.WALStats(); ok {
		enabled, mode = 1, m.String()
		wb, wsync = int64(st.AppendedBytes), int64(st.SyncedBytes)
		wrec, wfs = st.Records, st.Fsyncs
	}
	c := e.TxnMgr.CounterSnapshot()
	t.Insert(nil, []sqltypes.Value{
		sqltypes.NewInt(enabled),
		sqltypes.NewString(mode),
		sqltypes.NewInt(wb),
		sqltypes.NewInt(wsync),
		sqltypes.NewInt(wrec),
		sqltypes.NewInt(wfs),
		sqltypes.NewInt(e.Checkpoints()),
		sqltypes.NewInt(int64(e.TxnMgr.Epoch())),
		sqltypes.NewInt(int64(e.TxnMgr.LiveSnapshots())),
		sqltypes.NewInt(c.Begins),
		sqltypes.NewInt(c.Commits),
		sqltypes.NewInt(c.Rollbacks),
		sqltypes.NewInt(c.Conflicts),
	})
	return t
}

// statColumns renders per-indexed-column statistics: the distinct-value
// estimate and the equi-depth histogram the access-path cost model reads.
// One row per histogram bucket; a column whose histogram is empty (no
// non-NULL values) still gets one row with a NULL bucket.
func (e *Engine) statColumns() *storage.Table {
	t := storage.NewTable(StatColumnsTable, storage.NewSchema(
		strCol("table_name", 128),
		strCol("column_name", 128),
		intCol("distinct"),
		intCol("sampled"),
		intCol("bucket"),
		strCol("hi", 64),
		intCol("bucket_rows"),
		intCol("bucket_ndv"),
	))
	tables := e.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, tab := range tables {
		cols := tab.IndexColumns()
		if len(cols) == 0 {
			continue
		}
		st := tab.Statistics()
		for _, col := range cols {
			distinct := int64(st.DistinctOf(tab.Schema, col))
			h := st.Histograms[col]
			base := []sqltypes.Value{
				sqltypes.NewString(tab.Name),
				sqltypes.NewString(col),
				sqltypes.NewInt(distinct),
				sqltypes.NewInt(int64(h.Sampled)),
			}
			if len(h.Buckets) == 0 {
				t.Insert(nil, append(append([]sqltypes.Value{}, base...),
					sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null))
				continue
			}
			for i, b := range h.Buckets {
				t.Insert(nil, append(append([]sqltypes.Value{}, base...),
					sqltypes.NewInt(int64(i)),
					sqltypes.NewString(b.Hi.String()),
					sqltypes.NewInt(int64(b.Rows)),
					sqltypes.NewInt(int64(b.NDV))))
			}
		}
	}
	return t
}

// selectRefsSystemTable reports whether any table reference anywhere in q
// (FROM items, joins, CTE bodies, UNION branches, derived tables, and
// subqueries inside expressions) names a system view. Such queries are
// compiled fresh on every execution and never enter the plan cache — their
// "table" is a point-in-time snapshot that must be rebuilt per statement.
func selectRefsSystemTable(q *ast.Select) bool {
	return selectRefsTable(q, func(name string) bool { return IsSystemTable(name) })
}

// selectRefsTempTable reports whether any table reference anywhere in q
// names a session temp table (#name) or table variable (@name). Such
// queries stay out of the text-keyed plan cache: identical SQL in two
// sessions resolves to different tables.
func selectRefsTempTable(q *ast.Select) bool {
	return selectRefsTable(q, func(name string) bool {
		return len(name) > 0 && (name[0] == '#' || name[0] == '@')
	})
}

// selectRefsTable walks every table reference in q (FROM items, joins, CTE
// bodies, UNION branches, derived tables, and subqueries inside
// expressions) and reports whether pred matches any lower-cased name.
func selectRefsTable(q *ast.Select, pred func(name string) bool) bool {
	found := false
	var visit func(q *ast.Select)
	var visitTE func(te ast.TableExpr)
	visitTE = func(te ast.TableExpr) {
		switch t := te.(type) {
		case *ast.TableRef:
			if pred(strings.ToLower(t.Name)) {
				found = true
			}
		case *ast.SubqueryRef:
			visit(t.Query)
		case *ast.Join:
			visitTE(t.L)
			visitTE(t.R)
		}
	}
	visit = func(q *ast.Select) {
		for ; q != nil && !found; q = q.Union {
			for _, cte := range q.With {
				visit(cte.Query)
			}
			for _, te := range q.From {
				visitTE(te)
			}
			ast.WalkSelectExprs(q, func(e ast.Expr) bool {
				switch x := e.(type) {
				case *ast.Subquery:
					visit(x.Query)
				case *ast.InExpr:
					if x.Query != nil {
						visit(x.Query)
					}
				}
				return !found
			})
		}
	}
	visit(q)
	return found
}
