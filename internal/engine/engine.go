// Package engine ties the storage, planning, and execution layers into a
// database engine: a catalog of tables, indexes, scalar UDFs, stored
// procedures, and custom aggregates; sessions with I/O statistics; static
// explicit cursors that materialize into worktables (the behaviour Aggify
// optimizes away); and DML execution.
//
// The procedural interpreter (package interp) installs itself into the
// engine via the AggFactory and FuncCaller hooks, which break the mutual
// dependency between query execution (queries call scalar UDFs) and
// procedure execution (procedures run queries).
package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/txn"
)

// Engine is the shared database instance: catalog plus plan cache.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*storage.Table
	funcs  map[string]*ast.CreateFunction
	procs  map[string]*ast.CreateProcedure
	aggs   map[string]*exec.AggSpec
	aggSrc map[string]*ast.CreateAggregate

	// cache holds everything the engine compiles (plancache.go).
	planMu sync.Mutex
	cache  planCache

	// TxnMgr allocates commit epochs, snapshots, and transactions for every
	// base table. Always non-nil; without an attached durability sink the
	// engine runs the same MVCC protocol purely in memory.
	TxnMgr *txn.Manager
	// dur holds the attached WAL/checkpoint state (nil without a data
	// directory); see durability.go.
	dur *durability

	// stmtStats is the per-fingerprint cumulative statement store backing
	// aggify_stat_statements; see stmtstats.go.
	stmtStats *StmtStats
	// checkpoints counts completed checkpoint passes.
	checkpoints atomic.Int64

	// Live-session registry backing aggify_stat_activity.
	sessMu   sync.Mutex
	sessions map[uint64]*Session
	nextSess uint64

	// AggFactory builds an executable aggregate spec from a CREATE AGGREGATE
	// definition; installed by the interpreter.
	AggFactory func(def *ast.CreateAggregate, orderSensitive bool) (*exec.AggSpec, error)
	// FuncCaller invokes a scalar UDF; installed by the interpreter.
	FuncCaller func(s *Session, ctx *exec.Ctx, def *ast.CreateFunction, args []sqltypes.Value) (sqltypes.Value, error)
	// ProcCaller invokes a stored procedure; installed by the interpreter.
	ProcCaller func(s *Session, ctx *exec.Ctx, def *ast.CreateProcedure, args []sqltypes.Value) error
}

// New creates an empty engine with the built-in aggregates registered.
func New() *Engine {
	e := &Engine{
		tables: map[string]*storage.Table{},
		funcs:  map[string]*ast.CreateFunction{},
		procs:  map[string]*ast.CreateProcedure{},
		aggs:   map[string]*exec.AggSpec{},
		aggSrc: map[string]*ast.CreateAggregate{},
		TxnMgr: txn.NewManager(),

		stmtStats: NewStmtStats(DefaultStmtStatsCap),
		sessions:  map[uint64]*Session{},
	}
	e.cache.reset()
	for name, spec := range exec.BuiltinAggs() {
		e.aggs[name] = spec
	}
	return e
}

// CreateTable registers a new base table, bound to the engine's
// transaction manager and (when durability is attached) logged to the WAL
// under its own commit epoch.
func (e *Engine) CreateTable(name string, schema *storage.Schema) (*storage.Table, error) {
	name = strings.ToLower(name)
	if strings.HasPrefix(name, SystemTablePrefix) {
		return nil, fmt.Errorf("engine: the %s* name prefix is reserved for system tables", SystemTablePrefix)
	}
	e.mu.Lock()
	if _, exists := e.tables[name]; exists {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: table %s already exists", name)
	}
	t := storage.NewTable(name, schema)
	t.Bind(e.TxnMgr)
	e.tables[name] = t
	e.mu.Unlock()
	if err := e.logCreateTable(name, schema); err != nil {
		e.mu.Lock()
		delete(e.tables, name)
		e.mu.Unlock()
		return nil, err
	}
	e.InvalidatePlans()
	return t, nil
}

// DropTable removes a base table (used by tests and the shell).
func (e *Engine) DropTable(name string) {
	name = strings.ToLower(name)
	e.mutateCatalog(func() { delete(e.tables, name) })
	e.logDropTable(name)
}

// Tables returns every base table (stable order not guaranteed). Used by
// vacuum and checkpointing.
func (e *Engine) Tables() []*storage.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*storage.Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	return out
}

// vacuumAll reclaims superseded versions older than the vacuum horizon in
// every base table.
func (e *Engine) vacuumAll(oldest uint64) {
	for _, t := range e.Tables() {
		t.Vacuum(oldest)
	}
}

// MaybeVacuum runs an inline vacuum pass if enough superseded versions
// have accumulated. Sessions call it after commits; the server also runs
// Vacuum from a background ticker.
func (e *Engine) MaybeVacuum() { e.TxnMgr.MaybeVacuum(e.vacuumAll) }

// Vacuum forces a vacuum pass over all base tables.
func (e *Engine) Vacuum() { e.TxnMgr.Vacuum(e.vacuumAll) }

// Table returns a base table by name.
func (e *Engine) Table(name string) (*storage.Table, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	return t, ok
}

// CreateIndex builds an ordered index on a base table column and
// invalidates cached plans so they can pick the new access path.
func (e *Engine) CreateIndex(table, column string) error {
	t, ok := e.Table(table)
	if !ok {
		return fmt.Errorf("engine: no table %s", table)
	}
	if err := t.CreateIndex(column); err != nil {
		return err
	}
	if err := e.logCreateIndex(strings.ToLower(table), strings.ToLower(column)); err != nil {
		return err
	}
	e.InvalidatePlans()
	return nil
}

// mutateCatalog changes the catalog maps and empties the plan store: a plan
// binds the tables and definitions it was compiled against.
func (e *Engine) mutateCatalog(change func()) {
	e.mu.Lock()
	change()
	e.mu.Unlock()
	e.InvalidatePlans()
}

// RegisterFunction registers a scalar UDF definition.
func (e *Engine) RegisterFunction(def *ast.CreateFunction) error {
	name := strings.ToLower(def.Name)
	if plan.IsBuiltinScalarFunc(name) || exec.IsBuiltinAgg(name) {
		return fmt.Errorf("engine: function %s conflicts with a built-in", name)
	}
	e.mutateCatalog(func() { e.funcs[name] = def })
	return nil
}

// Function returns a scalar UDF definition.
func (e *Engine) Function(name string) (*ast.CreateFunction, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	f, ok := e.funcs[strings.ToLower(name)]
	return f, ok
}

// RegisterProcedure registers a stored procedure definition.
func (e *Engine) RegisterProcedure(def *ast.CreateProcedure) error {
	e.mutateCatalog(func() { e.procs[strings.ToLower(def.Name)] = def })
	return nil
}

// Procedure returns a stored procedure definition.
func (e *Engine) Procedure(name string) (*ast.CreateProcedure, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, ok := e.procs[strings.ToLower(name)]
	return p, ok
}

// RegisterAggregateSpec registers a native (Go-implemented) custom
// aggregate. The spec name is lower-cased.
func (e *Engine) RegisterAggregateSpec(spec *exec.AggSpec) error {
	name := strings.ToLower(spec.Name)
	if exec.IsBuiltinAgg(name) {
		return fmt.Errorf("engine: aggregate %s conflicts with a built-in", name)
	}
	e.mutateCatalog(func() { e.aggs[name] = spec })
	return nil
}

// RegisterAggregate registers an interpreted custom aggregate from its
// CREATE AGGREGATE definition (the form Aggify generates). orderSensitive
// marks aggregates generated from ORDER BY cursor loops (paper Eq. 6).
func (e *Engine) RegisterAggregate(def *ast.CreateAggregate, orderSensitive bool) error {
	if e.AggFactory == nil {
		return fmt.Errorf("engine: no aggregate factory installed (missing interp.Install)")
	}
	spec, err := e.AggFactory(def, orderSensitive)
	if err != nil {
		return err
	}
	name := strings.ToLower(def.Name)
	spec.Name = name
	e.mutateCatalog(func() { e.aggs[name], e.aggSrc[name] = spec, def })
	return nil
}

// Aggregate returns a registered aggregate spec.
func (e *Engine) Aggregate(name string) (*exec.AggSpec, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a, ok := e.aggs[strings.ToLower(name)]
	return a, ok
}

// AggregateSource returns the CREATE AGGREGATE definition of an interpreted
// aggregate, if it was registered from source.
func (e *Engine) AggregateSource(name string) (*ast.CreateAggregate, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	src, ok := e.aggSrc[strings.ToLower(name)]
	return src, ok
}

// CatalogWithTemp returns a planner catalog over this engine with an
// additional temp-table resolver (used by the aggregate-body compiler,
// which runs at registration time without a session).
func (e *Engine) CatalogWithTemp(temp func(string) (*storage.Table, bool)) plan.Catalog {
	return sessionCatalog{eng: e, temp: temp}
}

// sessionCatalog adapts the engine (plus a session's temp-table resolver)
// to the planner's Catalog interface.
type sessionCatalog struct {
	eng  *Engine
	temp func(name string) (*storage.Table, bool)
}

// ResolveTable implements plan.Catalog.
func (c sessionCatalog) ResolveTable(name string) (*storage.Table, error) {
	name = strings.ToLower(name)
	if len(name) > 0 && (name[0] == '@' || name[0] == '#') {
		if c.temp != nil {
			if t, ok := c.temp(name); ok {
				return t, nil
			}
		}
		return nil, fmt.Errorf("engine: undeclared table variable %s", name)
	}
	if t, ok := c.eng.Table(name); ok {
		return t, nil
	}
	if IsSystemTable(name) {
		return c.eng.systemTable(name)
	}
	return nil, fmt.Errorf("engine: no table %s", name)
}

// AggSpec implements plan.Catalog.
func (c sessionCatalog) AggSpec(name string) (*exec.AggSpec, bool) {
	return c.eng.Aggregate(name)
}

// ScalarFunc implements plan.Catalog.
func (c sessionCatalog) ScalarFunc(name string) (*ast.CreateFunction, bool) {
	return c.eng.Function(name)
}

// TypeOfExprDefault is the declared type used when none can be inferred.
var TypeOfExprDefault = sqltypes.Unknown
