package engine

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aggify/internal/fingerprint"
)

// Per-fingerprint cumulative statement statistics, in the spirit of
// pg_stat_statements. Every top-level statement the engine dispatches —
// embedded, over TCP, or prepared — is fingerprinted at session dispatch
// and folded into one StmtStat entry per canonical statement shape. The
// store is engine-global: all sessions aggregate into it, and the
// aggify_stat_statements system table plus the /metrics exporter read it.

// DefaultStmtStatsCap bounds how many distinct fingerprints the store
// retains; beyond it, the least-recently-called entry is evicted.
const DefaultStmtStatsCap = 1024

// StmtStat accumulates one statement shape's counters. All fields are
// atomics so the hot path (one warm statement) is lock-free after the map
// lookup and allocation-free always.
type StmtStat struct {
	Fingerprint uint64
	Query       string // canonical template; immutable once created

	lastUsed atomic.Int64 // store's logical clock at the most recent call

	Calls        atomic.Int64
	Errors       atomic.Int64
	TotalMicros  atomic.Int64
	MinMicros    atomic.Int64 // math.MaxInt64 until the first call lands
	MaxMicros    atomic.Int64
	Rows         atomic.Int64 // rows emitted to the client
	LogicalReads atomic.Int64
	WALBytes     atomic.Int64 // bytes framed into the WAL (approximate under concurrency)
	Conflicts    atomic.Int64 // write conflicts hit (including retried ones)
	QueryExecs   atomic.Int64 // query executions inside the statement
	Rewritten    atomic.Int64 // ... of which had logical rewrite rules fire
	PlanHits     atomic.Int64 // plan compilations the plan cache served
	PlanMisses   atomic.Int64 // plan compilations the cache could not serve
}

// StmtStatRow is a point-in-time copy of one entry, used by the system
// table and the /metrics exporter.
type StmtStatRow struct {
	Fingerprint  uint64
	Query        string
	Calls        int64
	Errors       int64
	TotalMicros  int64
	MinMicros    int64
	MaxMicros    int64
	Rows         int64
	LogicalReads int64
	WALBytes     int64
	Conflicts    int64
	QueryExecs   int64
	Rewritten    int64
	PlanHits     int64
	PlanMisses   int64
}

// StmtStats is the bounded per-fingerprint store.
type StmtStats struct {
	mu  sync.RWMutex
	m   map[uint64]*StmtStat
	cap int

	clock     atomic.Int64 // logical LRU clock, ticked per call
	evictions atomic.Int64
}

// NewStmtStats creates a store bounded to cap entries (DefaultStmtStatsCap
// when cap <= 0).
func NewStmtStats(cap int) *StmtStats {
	if cap <= 0 {
		cap = DefaultStmtStatsCap
	}
	return &StmtStats{m: make(map[uint64]*StmtStat), cap: cap}
}

// entry returns the stat entry for fp, creating (and possibly evicting) on
// first sighting. raw is only normalized on the miss path.
func (ss *StmtStats) entry(fp uint64, raw string) *StmtStat {
	ss.mu.RLock()
	e := ss.m[fp]
	ss.mu.RUnlock()
	if e != nil {
		return e
	}
	ss.mu.Lock()
	if e = ss.m[fp]; e == nil {
		if len(ss.m) >= ss.cap {
			ss.evictLocked()
		}
		e = &StmtStat{Fingerprint: fp, Query: fingerprint.Normalize(raw)}
		e.MinMicros.Store(math.MaxInt64)
		ss.m[fp] = e
	}
	ss.mu.Unlock()
	return e
}

// evictLocked removes the least-recently-called entry. O(n), but only runs
// when a brand-new shape arrives with the store already full — adversarial
// unique-shape traffic pays for its own eviction scans; steady-state
// workloads never enter here.
func (ss *StmtStats) evictLocked() {
	var victim uint64
	minUsed := int64(math.MaxInt64)
	for fp, e := range ss.m {
		if u := e.lastUsed.Load(); u < minUsed {
			minUsed, victim = u, fp
		}
	}
	if _, ok := ss.m[victim]; ok {
		delete(ss.m, victim)
		ss.evictions.Add(1)
	}
}

// Evictions returns how many entries the cardinality cap has evicted.
func (ss *StmtStats) Evictions() int64 { return ss.evictions.Load() }

// Len returns the number of distinct fingerprints currently tracked.
func (ss *StmtStats) Len() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.m)
}

// Lookup returns the canonical template for a fingerprint, if tracked.
func (ss *StmtStats) Lookup(fp uint64) (string, bool) {
	ss.mu.RLock()
	e := ss.m[fp]
	ss.mu.RUnlock()
	if e == nil {
		return "", false
	}
	return e.Query, true
}

// Snapshot copies every entry, sorted by fingerprint for deterministic
// iteration (the system table's natural order).
func (ss *StmtStats) Snapshot() []StmtStatRow {
	ss.mu.RLock()
	entries := make([]*StmtStat, 0, len(ss.m))
	for _, e := range ss.m {
		entries = append(entries, e)
	}
	ss.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Fingerprint < entries[j].Fingerprint })
	out := make([]StmtStatRow, len(entries))
	for i, e := range entries {
		min := e.MinMicros.Load()
		if min == math.MaxInt64 {
			min = 0
		}
		out[i] = StmtStatRow{
			Fingerprint:  e.Fingerprint,
			Query:        e.Query,
			Calls:        e.Calls.Load(),
			Errors:       e.Errors.Load(),
			TotalMicros:  e.TotalMicros.Load(),
			MinMicros:    min,
			MaxMicros:    e.MaxMicros.Load(),
			Rows:         e.Rows.Load(),
			LogicalReads: e.LogicalReads.Load(),
			WALBytes:     e.WALBytes.Load(),
			Conflicts:    e.Conflicts.Load(),
			QueryExecs:   e.QueryExecs.Load(),
			Rewritten:    e.Rewritten.Load(),
			PlanHits:     e.PlanHits.Load(),
			PlanMisses:   e.PlanMisses.Load(),
		}
	}
	return out
}

// record folds one finished statement into the store. Allocation-free when
// the fingerprint is already tracked.
func (ss *StmtStats) record(fp uint64, raw string, micros int64, failed bool, d stmtDelta) {
	e := ss.entry(fp, raw)
	e.lastUsed.Store(ss.clock.Add(1))
	e.Calls.Add(1)
	if failed {
		e.Errors.Add(1)
	}
	e.TotalMicros.Add(micros)
	for {
		cur := e.MinMicros.Load()
		if micros >= cur || e.MinMicros.CompareAndSwap(cur, micros) {
			break
		}
	}
	for {
		cur := e.MaxMicros.Load()
		if micros <= cur || e.MaxMicros.CompareAndSwap(cur, micros) {
			break
		}
	}
	e.Rows.Add(d.rows)
	e.LogicalReads.Add(d.reads)
	e.WALBytes.Add(d.wal)
	e.Conflicts.Add(d.conflicts)
	e.QueryExecs.Add(d.queries)
	e.Rewritten.Add(d.rewritten)
	e.PlanHits.Add(d.planHits)
	e.PlanMisses.Add(d.planMisses)
}

// stmtDelta carries the per-statement counter deltas from BeginStmt's
// snapshot to EndStmt.
type stmtDelta struct {
	rows, reads, wal, conflicts int64
	queries, rewritten          int64
	planHits, planMisses        int64
}

// StmtRecord is the in-flight handle between BeginStmt and EndStmt. It is
// a plain value (no allocation) holding the counter baselines.
type StmtRecord struct {
	fp     uint64
	raw    string
	start  time.Time
	base   stmtDelta
	active bool
}

// Fingerprint returns the statement's fingerprint (for callers that want to
// reuse it, e.g. the server's slow-query ring).
func (r StmtRecord) Fingerprint() uint64 { return r.fp }

// BeginStmt marks the start of one top-level statement with raw source
// text raw: it fingerprints the text, publishes the session as active (for
// aggify_stat_activity), and snapshots the session counters the statement
// delta is measured against. Allocation-free.
func (s *Session) BeginStmt(raw string) StmtRecord {
	fp := fingerprint.Fingerprint(raw)
	now := time.Now()
	s.curFP.Store(fp)
	s.stmtStart.Store(now.UnixNano())
	return StmtRecord{
		fp:    fp,
		raw:   raw,
		start: now,
		base: stmtDelta{
			rows:       s.Stats.RowsEmitted.Load(),
			reads:      s.Stats.LogicalReads.Load(),
			wal:        s.Eng.walAppended(),
			conflicts:  s.conflicts.Load(),
			queries:    s.queryExecs.Load(),
			rewritten:  s.rewrittenExecs.Load(),
			planHits:   s.planCacheHits.Load(),
			planMisses: s.planCacheMisses.Load(),
		},
		active: true,
	}
}

// EndStmt finishes the statement begun by BeginStmt, folding its wall time
// and counter deltas into the engine's fingerprint store and returning the
// session to the idle state. Allocation-free when the fingerprint is
// already tracked (the warm path).
func (s *Session) EndStmt(rec StmtRecord, err error) {
	if !rec.active {
		return
	}
	micros := time.Since(rec.start).Microseconds()
	s.stmtStart.Store(0)
	d := stmtDelta{
		rows:       s.Stats.RowsEmitted.Load() - rec.base.rows,
		reads:      s.Stats.LogicalReads.Load() - rec.base.reads,
		wal:        s.Eng.walAppended() - rec.base.wal,
		conflicts:  s.conflicts.Load() - rec.base.conflicts,
		queries:    s.queryExecs.Load() - rec.base.queries,
		rewritten:  s.rewrittenExecs.Load() - rec.base.rewritten,
		planHits:   s.planCacheHits.Load() - rec.base.planHits,
		planMisses: s.planCacheMisses.Load() - rec.base.planMisses,
	}
	s.Eng.stmtStats.record(rec.fp, rec.raw, micros, err != nil, d)
}

// walAppended returns the WAL's lifetime appended-byte high-water mark, or
// 0 for in-memory engines. The per-statement WAL delta attributes global
// log growth to the statement that observed it, which is exact for serial
// workloads and approximate under concurrent commits.
func (e *Engine) walAppended() int64 {
	if e.dur == nil {
		return 0
	}
	return int64(e.dur.log.Size())
}

// StmtStatsStore exposes the engine's fingerprint store (system table,
// metrics exporter, tests).
func (e *Engine) StmtStatsStore() *StmtStats { return e.stmtStats }

// Session activity accessors (aggify_stat_activity reads these from other
// goroutines; all are atomics).

// NoteCursorOpen adjusts the session's open-cursor gauge; the interpreter
// and the server backend call it on OPEN/CLOSE/DEALLOCATE.
func (s *Session) NoteCursorOpen(delta int64) { s.cursorsOpen.Add(delta) }

// OpenCursors returns the session's open-cursor gauge.
func (s *Session) OpenCursors() int64 { return s.cursorsOpen.Load() }

// registerSession assigns an id and adds s to the engine's live-session
// registry.
func (e *Engine) registerSession(s *Session) {
	e.sessMu.Lock()
	e.nextSess++
	s.ID = e.nextSess
	e.sessions[s.ID] = s
	e.sessMu.Unlock()
}

// unregisterSession removes a closed session from the registry.
func (e *Engine) unregisterSession(id uint64) {
	e.sessMu.Lock()
	delete(e.sessions, id)
	e.sessMu.Unlock()
}

// Sessions returns the live sessions sorted by id.
func (e *Engine) Sessions() []*Session {
	e.sessMu.Lock()
	out := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		out = append(out, s)
	}
	e.sessMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
