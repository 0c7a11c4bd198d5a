package engine

import (
	"fmt"
	"strings"
	"sync/atomic"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/txn"
)

// Session is one connection to the engine: it carries I/O statistics,
// planner options, the interrupt channel, and collected PRINT output.
type Session struct {
	Eng   *Engine
	Stats *storage.Stats
	Opts  plan.Options
	// Interrupt aborts long executions when closed (used to reproduce the
	// paper's "forcibly terminated after N hours" runs on a budget).
	Interrupt <-chan struct{}
	// InMemoryWorktables disables disk-backed cursor worktables (the
	// materialization-cost ablation; see storage.Worktable).
	InMemoryWorktables bool

	prints     []string
	tempTables map[string]*storage.Table // session temp tables (#name)
	tx         *txn.Txn                  // open explicit transaction, nil in auto-commit

	// ID keys the session in the engine's live registry (assigned by
	// NewSession, never 0).
	ID uint64

	// Activity state published for aggify_stat_activity, and cumulative
	// per-session counters the statement recorder (stmtstats.go) diffs.
	// All atomic: the activity view reads them from other goroutines.
	curFP       atomic.Uint64 // fingerprint of the current/last statement
	stmtStart   atomic.Int64  // unixnano the current statement began; 0 = idle
	curEpoch    atomic.Uint64 // epoch pinned by the most recent read snapshot
	cursorsOpen atomic.Int64  // open-cursor gauge
	inTxn       atomic.Bool   // mirrors tx != nil for cross-goroutine reads

	conflicts      atomic.Int64 // write conflicts hit by this session's DML
	queryExecs     atomic.Int64 // query executions
	rewrittenExecs atomic.Int64 // ... whose plans had rewrite rules fire

	planCacheHits   atomic.Int64 // plan compilations avoided by the plan cache
	planCacheMisses atomic.Int64 // plan compilations the cache could not serve
}

// NewSession creates a session with fresh statistics and registers it in
// the engine's live-session registry (Close unregisters it).
func (e *Engine) NewSession() *Session {
	s := &Session{Eng: e, Stats: &storage.Stats{}, tempTables: map[string]*storage.Table{}}
	e.registerSession(s)
	return s
}

// CreateTempTable registers a session-scoped temp table (#name). Creating
// an existing temp table replaces it.
func (s *Session) CreateTempTable(name string, schema *storage.Schema) *storage.Table {
	name = strings.ToLower(name)
	t := storage.NewTable(name, schema)
	s.tempTables[name] = t
	return t
}

// TempTable resolves a session temp table.
func (s *Session) TempTable(name string) (*storage.Table, bool) {
	t, ok := s.tempTables[strings.ToLower(name)]
	return t, ok
}

// DropTempTable removes a session temp table.
func (s *Session) DropTempTable(name string) {
	delete(s.tempTables, strings.ToLower(name))
}

// Print records a PRINT message.
func (s *Session) Print(msg string) { s.prints = append(s.prints, msg) }

// Prints returns and clears the collected PRINT output.
func (s *Session) Prints() []string {
	out := s.prints
	s.prints = nil
	return out
}

// Ctx builds an execution context. vars resolves procedural variables and
// temp resolves table variables; both may be nil outside procedures.
func (s *Session) Ctx(vars func(string) (sqltypes.Value, bool), temp func(string) (*storage.Table, bool)) *exec.Ctx {
	ctx := &exec.Ctx{
		Vars:      vars,
		Temp:      s.tempResolver(temp),
		Stats:     s.Stats,
		Interrupt: s.Interrupt,
		Owner:     s,
	}
	ctx.CallFunc = func(name string, args []sqltypes.Value) (sqltypes.Value, error) {
		def, ok := s.Eng.Function(name)
		if !ok {
			return sqltypes.Null, fmt.Errorf("engine: unknown function %s", name)
		}
		if s.Eng.FuncCaller == nil {
			return sqltypes.Null, fmt.Errorf("engine: no function caller installed (missing interp.Install)")
		}
		return s.Eng.FuncCaller(s, ctx, def, args)
	}
	return ctx
}

// tempResolver layers a frame-local resolver over the session temp tables.
func (s *Session) tempResolver(frame func(string) (*storage.Table, bool)) func(string) (*storage.Table, bool) {
	return func(name string) (*storage.Table, bool) {
		if frame != nil {
			if t, ok := frame(name); ok {
				return t, true
			}
		}
		return s.TempTable(name)
	}
}

// Catalog returns the planner catalog bound to a temp-table resolver.
func (s *Session) Catalog(temp func(string) (*storage.Table, bool)) plan.Catalog {
	return sessionCatalog{eng: s.Eng, temp: s.tempResolver(temp)}
}

// PlanCacheHits returns the session's cumulative plan-cache hit count.
func (s *Session) PlanCacheHits() int64 { return s.planCacheHits.Load() }

// PlanCacheMisses returns the session's cumulative plan-cache miss count.
func (s *Session) PlanCacheMisses() int64 { return s.planCacheMisses.Load() }

// Query plans and runs a SELECT, returning column names and rows.
func (s *Session) Query(q *ast.Select, ctx *exec.Ctx) ([]string, []exec.Row, error) {
	var temp func(string) (*storage.Table, bool)
	if ctx != nil {
		temp = ctx.Temp
	} else {
		ctx = s.Ctx(nil, nil)
	}
	defer s.PinRead(ctx)()
	p, err := s.PlanQuery(q, temp)
	if err != nil {
		return nil, nil, err
	}
	s.notePlanExec(p)
	rows, err := p.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	s.Stats.RowsEmitted.Add(int64(len(rows)))
	return p.Columns, rows, nil
}

// notePlanExec accumulates the per-session plan-shape counters the
// statement recorder diffs into aggify_stat_statements.
func (s *Session) notePlanExec(p *plan.Plan) {
	s.queryExecs.Add(1)
	if len(p.Rewrites) > 0 {
		s.rewrittenExecs.Add(1)
	}
}

// ExplainQuery compiles a query and returns its plan rendered as lines.
// Without analyze it returns the static plan tree; with analyze it executes
// the query (discarding rows) and returns the tree annotated with per-
// operator runtime counters, followed by a session-level stats-delta footer.
func (s *Session) ExplainQuery(q *ast.Select, analyze bool, ctx *exec.Ctx) ([]string, error) {
	var temp func(string) (*storage.Table, bool)
	if ctx != nil {
		temp = ctx.Temp
	} else {
		ctx = s.Ctx(nil, nil)
	}
	defer s.PinRead(ctx)()
	p, err := s.PlanQuery(q, temp)
	if err != nil {
		return nil, err
	}
	if !analyze {
		return append(explainHeader(p), splitPlanLines(p.Explain.String())...), nil
	}
	before := s.Stats.Snapshot()
	rows, ins, err := p.RunInstrumented(ctx)
	if err != nil {
		return nil, err
	}
	s.Stats.RowsEmitted.Add(int64(len(rows)))
	delta := s.Stats.Snapshot().Sub(before)
	lines := append(explainHeader(p), splitPlanLines(ins.Render())...)
	lines = append(lines, fmt.Sprintf("-- stats: rows=%d reads=%d worktable w=%d r=%d seeks=%d",
		len(rows), delta.LogicalReads, delta.WorktableWrites, delta.WorktableReads, delta.IndexSeeks))
	return lines, nil
}

// explainHeader renders the lines EXPLAIN prints above the plan tree: the
// rewrite rules that fired and the UDF calls inline_udf left in place.
func explainHeader(p *plan.Plan) []string {
	var out []string
	if len(p.Rewrites) > 0 {
		out = append(out, "rewrites: "+strings.Join(p.Rewrites, " "))
	}
	if len(p.Declined) > 0 {
		out = append(out, "declined: "+strings.Join(p.Declined, " "))
	}
	return out
}

// splitPlanLines splits a rendered plan into lines, dropping the trailing
// newline's empty element.
func splitPlanLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

// QueryScalar runs a query expected to produce a single value (first column
// of the first row; NULL when the result is empty).
func (s *Session) QueryScalar(q *ast.Select, ctx *exec.Ctx) (sqltypes.Value, error) {
	_, rows, err := s.Query(q, ctx)
	if err != nil {
		return sqltypes.Null, err
	}
	if len(rows) == 0 {
		return sqltypes.Null, nil
	}
	if len(rows) > 1 {
		return sqltypes.Null, fmt.Errorf("engine: scalar query returned %d rows", len(rows))
	}
	if len(rows[0]) == 1 {
		return rows[0][0], nil
	}
	return sqltypes.NewTuple(rows[0]), nil
}

// resolveDMLTable resolves a DML target: base table or temp/table variable.
func (s *Session) resolveDMLTable(name string, ctx *exec.Ctx) (*storage.Table, error) {
	name = strings.ToLower(name)
	if len(name) > 0 && (name[0] == '@' || name[0] == '#') {
		if ctx != nil && ctx.Temp != nil {
			if t, ok := ctx.Temp(name); ok {
				return t, nil
			}
		}
		return nil, fmt.Errorf("engine: undeclared table variable %s", name)
	}
	if t, ok := s.Eng.Table(name); ok {
		return t, nil
	}
	return nil, fmt.Errorf("engine: no table %s", name)
}

// Insert executes an INSERT statement. All inserted rows commit atomically
// in the statement's (implicit or explicit) transaction.
func (s *Session) Insert(st *ast.InsertStmt, ctx *exec.Ctx) (int, error) {
	if ctx == nil {
		ctx = s.Ctx(nil, nil)
	}
	tab, err := s.resolveDMLTable(st.Table, ctx)
	if err != nil {
		return 0, err
	}
	// Map the column list (or the full schema) to target ordinals.
	ordinals := make([]int, 0, tab.Schema.Len())
	if len(st.Columns) == 0 {
		for i := range tab.Schema.Columns {
			ordinals = append(ordinals, i)
		}
	} else {
		for _, cname := range st.Columns {
			ord := tab.Schema.Ordinal(cname)
			if ord < 0 {
				return 0, fmt.Errorf("engine: table %s has no column %s", tab.Name, cname)
			}
			ordinals = append(ordinals, ord)
		}
	}
	buildRow := func(vals []sqltypes.Value) ([]sqltypes.Value, error) {
		if len(vals) != len(ordinals) {
			return nil, fmt.Errorf("engine: INSERT into %s expects %d values, got %d", tab.Name, len(ordinals), len(vals))
		}
		row := make([]sqltypes.Value, tab.Schema.Len())
		for i := range row {
			row[i] = sqltypes.Null
		}
		for i, ord := range ordinals {
			row[ord] = vals[i]
		}
		return row, nil
	}
	// Evaluate the source (SELECT or VALUES) into rows first, then apply
	// them in one transaction.
	var newRows [][]sqltypes.Value
	if st.Query != nil {
		_, rows, err := s.Query(st.Query, ctx)
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			row, err := buildRow(r)
			if err != nil {
				return 0, err
			}
			newRows = append(newRows, row)
		}
	} else {
		cat := s.Catalog(tempOf(ctx))
		for _, exprRow := range st.Rows {
			vals := make([]sqltypes.Value, len(exprRow))
			for i, e := range exprRow {
				sc, err := plan.CompileScalar(cat, s.Opts, e)
				if err != nil {
					return 0, err
				}
				if vals[i], err = sc(ctx, nil); err != nil {
					return 0, err
				}
			}
			row, err := buildRow(vals)
			if err != nil {
				return 0, err
			}
			newRows = append(newRows, row)
		}
	}
	return s.dmlApply(ctx, tab, func(tx *txn.Txn) (int, error) {
		for i, row := range newRows {
			if err := tab.Insert(tx, row); err != nil {
				return i, err
			}
		}
		return len(newRows), nil
	})
}

// Update executes an UPDATE statement, returning the number of rows
// modified.
func (s *Session) Update(st *ast.UpdateStmt, ctx *exec.Ctx) (int, error) {
	if ctx == nil {
		ctx = s.Ctx(nil, nil)
	}
	tab, err := s.resolveDMLTable(st.Table, ctx)
	if err != nil {
		return 0, err
	}
	cat := s.Catalog(tempOf(ctx))
	src, where, err := s.compileWhere(cat, st.Where, tab)
	if err != nil {
		return 0, err
	}
	type setter struct {
		ord int
		sc  exec.Scalar
	}
	setters := make([]setter, len(st.Sets))
	for i, sc := range st.Sets {
		ord := tab.Schema.Ordinal(sc.Column)
		if ord < 0 {
			return 0, fmt.Errorf("engine: table %s has no column %s", tab.Name, sc.Column)
		}
		compiled, err := plan.CompileRowExpr(cat, s.Opts, sc.Value, tab)
		if err != nil {
			return 0, err
		}
		setters[i] = setter{ord: ord, sc: compiled}
	}
	// Collect matching rows at the transaction's snapshot first, then
	// apply (avoids scan-while-update). dmlApply installs the write
	// transaction's snapshot as ctx.Snap, so the collect scan, the apply,
	// and the conflict checks all agree on one epoch.
	return s.dmlApply(ctx, tab, func(tx *txn.Txn) (int, error) {
		type change struct {
			rid int
			row []sqltypes.Value
		}
		var changes []change
		err := s.scanMatching(ctx, tab, src, where, func(rid int, row []sqltypes.Value) error {
			newRow := append([]sqltypes.Value(nil), row...)
			for _, st := range setters {
				v, err := st.sc(ctx, row)
				if err != nil {
					return err
				}
				newRow[st.ord] = v
			}
			changes = append(changes, change{rid, newRow})
			return nil
		})
		if err != nil {
			return 0, err
		}
		for _, ch := range changes {
			if err := tab.Update(tx, ch.rid, ch.row); err != nil {
				return 0, err
			}
		}
		return len(changes), nil
	})
}

// compileWhere compiles a DML WHERE over tab into its row source and the
// predicate every row from that source must still satisfy.
func (s *Session) compileWhere(cat plan.Catalog, e ast.Expr, tab *storage.Table) (plan.RowSource, *exec.Predicate, error) {
	where, err := plan.CompileRowPredicate(cat, s.Opts, e, tab)
	if err != nil {
		return plan.RowSource{}, nil, err
	}
	src, err := plan.CompileRowSource(cat, s.Opts, e, tab)
	return src, where, err
}

// scanMatching reads tab's rows at ctx's snapshot from src — an index
// seek, a range seek or a scan, each charging one logical read per visible
// row it yields — and calls fn, in rid order, for each row satisfying where
// (nil = all), through the same bound predicate scans and filters evaluate.
// It is bound afresh per call, so a retried statement re-reads its
// variables. A seek key or bound that is NULL matches nothing.
func (s *Session) scanMatching(ctx *exec.Ctx, tab *storage.Table, src plan.RowSource, where *exec.Predicate, fn func(rid int, row []sqltypes.Value) error) error {
	var bp exec.BoundPredicate
	bp.Reset(where)
	var scanErr error
	visit := func(rid int, row []sqltypes.Value) bool {
		ok, err := bp.Match(ctx, row)
		if err == nil && ok {
			err = fn(rid, row)
		}
		scanErr = err
		return err == nil
	}
	if src.Column == "" {
		tab.Scan(ctx.Snap, s.Stats, visit)
		return scanErr
	}
	// The seek's key, lo and hi; an absent bound stays NULL (unbounded).
	var ops [3]sqltypes.Value
	for i, sc := range [3]exec.Scalar{src.Key, src.Lo, src.Hi} {
		if sc == nil {
			continue
		}
		v, err := sc(ctx, nil)
		if err != nil || v.IsNull() {
			return err
		}
		ops[i] = v
	}
	found := false
	if src.Key != nil {
		found = tab.Seek(ctx.Snap, s.Stats, src.Column, ops[0], visit)
	} else if cur, ok := tab.SeekRange(ctx.Snap, s.Stats, src.Column, ops[1], ops[2], src.LoStrict, src.HiStrict); ok {
		found = true
		cur.Each(s.Stats, visit)
	}
	if !found {
		return fmt.Errorf("engine: no index on %s(%s)", tab.Name, src.Column)
	}
	return scanErr
}

// Delete executes a DELETE statement, returning the number of rows removed.
func (s *Session) Delete(st *ast.DeleteStmt, ctx *exec.Ctx) (int, error) {
	if ctx == nil {
		ctx = s.Ctx(nil, nil)
	}
	tab, err := s.resolveDMLTable(st.Table, ctx)
	if err != nil {
		return 0, err
	}
	src, where, err := s.compileWhere(s.Catalog(tempOf(ctx)), st.Where, tab)
	if err != nil {
		return 0, err
	}
	return s.dmlApply(ctx, tab, func(tx *txn.Txn) (int, error) {
		var rids []int
		err := s.scanMatching(ctx, tab, src, where, func(rid int, _ []sqltypes.Value) error {
			rids = append(rids, rid)
			return nil
		})
		if err != nil {
			return 0, err
		}
		for _, rid := range rids {
			if err := tab.Delete(tx, rid); err != nil {
				return 0, err
			}
		}
		return len(rids), nil
	})
}

func tempOf(ctx *exec.Ctx) func(string) (*storage.Table, bool) {
	if ctx == nil {
		return nil
	}
	return ctx.Temp
}
