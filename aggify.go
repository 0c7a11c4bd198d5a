// Package aggify is the public facade of the Aggify reproduction — an
// implementation of "Aggify: Lifting the Curse of Cursor Loops using Custom
// Aggregates" (SIGMOD 2020) together with the database substrate it needs:
// a T-SQL-like engine with cursors, UDFs, stored procedures, and custom
// aggregates.
//
// The three core operations are:
//
//   - Open an in-memory database and run dialect scripts (DDL, DML,
//     queries, CREATE FUNCTION/PROCEDURE/AGGREGATE).
//   - Transform: run Aggify on a UDF or stored procedure, replacing its
//     cursor loops with queries over generated custom aggregates.
//   - Connect: open a metered client connection (the JDBC-style API of the
//     paper's client-program experiments).
//
// See the examples/ directory for runnable walkthroughs of the paper's
// Figures 1–8.
package aggify

import (
	"fmt"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/client"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/froid"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// Value is a SQL runtime value.
type Value = sqltypes.Value

// Convenience constructors re-exported from the value package.
var (
	// Null is the SQL NULL value.
	Null = sqltypes.Null
	// Int builds an INT value.
	Int = sqltypes.NewInt
	// Float builds a FLOAT value.
	Float = sqltypes.NewFloat
	// Str builds a string value.
	Str = sqltypes.NewString
	// Bool builds a BIT value.
	Bool = sqltypes.NewBool
	// Date parses a 'YYYY-MM-DD' date value (panics on malformed input).
	Date = sqltypes.MustDate
)

// NetworkProfile configures the simulated client/server network.
type NetworkProfile = wire.Profile

// LAN is the default network profile (0.5 ms RTT, 1 Gb/s).
var LAN = wire.LAN

// Conn is a metered client connection (Prepare / Query / ResultSet).
type Conn = client.Conn

// Server is an aggifyd TCP server: the engine behind the binary wire
// protocol, one session per connection.
type Server = server.Server

// ErrServerClosed is returned by Server.Serve after a Shutdown.
var ErrServerClosed = server.ErrServerClosed

// Dial opens a client connection to a running aggifyd server. The driver
// API is identical to Connect; the meter counts real socket bytes.
func Dial(addr string, profile NetworkProfile) (*Conn, error) {
	return client.Dial(addr, profile)
}

// DB is an embedded database instance.
type DB struct {
	eng  *engine.Engine
	sess *engine.Session
}

// Open creates an empty in-memory database.
func Open() *DB {
	eng := engine.New()
	interp.Install(eng)
	return &DB{eng: eng, sess: eng.NewSession()}
}

// Engine exposes the underlying engine (for advanced integration and the
// internal benchmark harness).
func (db *DB) Engine() *engine.Engine { return db.eng }

// Session exposes the DB's default session (statistics, planner options).
func (db *DB) Session() *engine.Session { return db.sess }

// Exec parses and executes a script: DDL, DML, control flow, CREATE
// FUNCTION / PROCEDURE / AGGREGATE.
func (db *DB) Exec(src string) error {
	stmts, spans, err := parser.ParseSpans(src)
	if err != nil {
		return err
	}
	_, err = interp.RunScriptSpans(db.sess, src, stmts, spans)
	return err
}

// Rows is a fully-materialized query result.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Query runs a single SELECT and returns all rows.
func (db *DB) Query(sql string) (*Rows, error) {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("aggify: Query expects a single statement")
	}
	switch st := stmts[0].(type) {
	case *ast.QueryStmt:
		rec := db.sess.BeginStmt(sql)
		cols, rows, err := db.sess.Query(st.Query, db.sess.Ctx(nil, nil))
		db.sess.EndStmt(rec, err)
		if err != nil {
			return nil, err
		}
		return &Rows{Columns: cols, Data: rows}, nil
	case *ast.ExplainStmt:
		lines, err := db.sess.ExplainQuery(st.Query, st.Analyze, db.sess.Ctx(nil, nil))
		if err != nil {
			return nil, err
		}
		data := make([][]Value, len(lines))
		for i, l := range lines {
			data[i] = []Value{sqltypes.NewString(l)}
		}
		return &Rows{Columns: []string{"plan"}, Data: data}, nil
	case *ast.TraceProcStmt:
		res, err := interp.RunScript(db.sess, stmts)
		if err != nil {
			return nil, err
		}
		if len(res) != 1 {
			return nil, fmt.Errorf("aggify: TRACE PROCEDURE produced %d result sets", len(res))
		}
		return &Rows{Columns: res[0].Columns, Data: res[0].Rows}, nil
	default:
		return nil, fmt.Errorf("aggify: Query expects a SELECT (use Exec for scripts)")
	}
}

// ProcedureProfile is the structured result of profiling one procedure
// invocation (see ProfileProcedure).
type ProcedureProfile = interp.ProcedureProfile

// ProfileProcedure runs a registered stored procedure with the interpreter's
// procedural profiler enabled and returns per-statement and per-cursor-loop
// attribution: iteration counts, rows fetched, wall time inside the loop
// body, and whether the Aggify analysis deems each loop rewritable. The
// procedure really executes, exactly like CallProc. The same report is
// available in the dialect as TRACE PROCEDURE name [args] and in sqlsh as
// \profile.
func (db *DB) ProfileProcedure(proc string, args ...Value) (*ProcedureProfile, error) {
	return interp.ProfileProcedure(db.sess, proc, args...)
}

// QueryScalar runs a SELECT expected to produce one value.
func (db *DB) QueryScalar(sql string) (Value, error) {
	rows, err := db.Query(sql)
	if err != nil {
		return Null, err
	}
	if len(rows.Data) != 1 || len(rows.Data[0]) != 1 {
		return Null, fmt.Errorf("aggify: scalar query returned %d rows", len(rows.Data))
	}
	return rows.Data[0][0], nil
}

// Call invokes a registered scalar UDF.
func (db *DB) Call(fn string, args ...Value) (Value, error) {
	return interp.CallFunctionByName(db.sess, fn, args...)
}

// CallProc invokes a registered stored procedure.
func (db *DB) CallProc(proc string, args ...Value) error {
	return interp.CallProcedureByName(db.sess, proc, args...)
}

// Connect opens a metered client connection to this database (its own
// server session), as the paper's remote application programs do.
func (db *DB) Connect(profile NetworkProfile) *Conn {
	return client.Connect(db.eng, profile)
}

// NewServer returns an aggifyd TCP server over this database. Use
// Serve/ListenAndServe to accept connections and Shutdown to drain.
func (db *DB) NewServer() *Server {
	return server.New(db.eng)
}

// RegisterAggregate registers a native-Go custom aggregate implementing
// the Init/Accumulate/Terminate(/Merge) contract of §3.1.
//
// The constructor is called once per group; the returned object's methods
// implement the contract.
func (db *DB) RegisterAggregate(name string, orderSensitive bool, constructor func() Aggregator) error {
	return db.eng.RegisterAggregateSpec(&exec.AggSpec{
		Name:           strings.ToLower(name),
		OrderSensitive: orderSensitive,
		Mergeable:      false,
		New: func() exec.Aggregator {
			return &nativeAgg{impl: constructor()}
		},
	})
}

// Aggregator is the public custom-aggregate contract (§3.1).
type Aggregator interface {
	// Init resets the aggregate state (called once per group).
	Init()
	// Accumulate folds one input tuple into the state.
	Accumulate(args []Value) error
	// Terminate returns the final value.
	Terminate() (Value, error)
}

// nativeAgg adapts the public contract to the executor's internal one.
type nativeAgg struct {
	impl Aggregator
}

func (a *nativeAgg) Reset() { a.impl.Init() }
func (a *nativeAgg) Step(_ *exec.Ctx, args []Value) error {
	return a.impl.Accumulate(args)
}
func (a *nativeAgg) Result(*exec.Ctx) (Value, error) { return a.impl.Terminate() }
func (a *nativeAgg) Merge(exec.Aggregator) error {
	return fmt.Errorf("aggify: native aggregates registered via RegisterAggregate do not merge")
}

// ----- The Aggify transformation -----

// TransformOptions configure the transformation.
type TransformOptions struct {
	// LiftForLoops enables §8.1: counted FOR loops are lifted through
	// recursive CTEs and then aggified.
	LiftForLoops bool
	// KeepDeadDeclarations disables the §6.2 dead-declaration cleanup.
	KeepDeadDeclarations bool
}

func (o TransformOptions) core() core.Options {
	return core.Options{LiftForLoops: o.LiftForLoops, KeepDeadDeclarations: o.KeepDeadDeclarations}
}

// TransformResult reports one module's transformation.
type TransformResult struct {
	// Name is the transformed function/procedure.
	Name string
	// RewrittenSource is the loop-free module definition.
	RewrittenSource string
	// AggregateSources holds the generated CREATE AGGREGATE definitions
	// (innermost loops first).
	AggregateSources []string
	// LoopsTransformed counts the cursor loops replaced.
	LoopsTransformed int
	// Skipped lists loops that failed the §4.2 applicability check.
	Skipped []string
	// Details exposes the per-loop variable sets (V_F, P_accum, V_init,
	// V_term) for inspection.
	Details []*core.LoopResult
}

// TransformSource runs Aggify on every CREATE FUNCTION / CREATE PROCEDURE
// in the given source, without touching any database. It returns one result
// per module (modules without cursor loops come back unchanged with
// LoopsTransformed == 0).
func TransformSource(src string, opts TransformOptions) ([]*TransformResult, error) {
	stmts, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	var out []*TransformResult
	for _, s := range stmts {
		switch def := s.(type) {
		case *ast.CreateFunction:
			rewritten, res, err := core.TransformFunction(def, opts.core())
			if err != nil {
				return nil, err
			}
			out = append(out, buildResult(def.Name, rewritten, res))
		case *ast.CreateProcedure:
			rewritten, res, err := core.TransformProcedure(def, opts.core())
			if err != nil {
				return nil, err
			}
			out = append(out, buildResult(def.Name, rewritten, res))
		}
	}
	return out, nil
}

func buildResult(name string, rewritten ast.Stmt, res *core.Result) *TransformResult {
	tr := &TransformResult{
		Name:             name,
		RewrittenSource:  ast.Format(rewritten),
		LoopsTransformed: len(res.Loops),
		Details:          res.Loops,
	}
	for _, agg := range res.Aggregates() {
		tr.AggregateSources = append(tr.AggregateSources, ast.Format(agg))
	}
	for _, skip := range res.Skipped {
		tr.Skipped = append(tr.Skipped, skip.Error())
	}
	return tr
}

// AggifyFunction transforms a registered UDF in place: the generated
// aggregates are registered and the function definition is replaced by the
// loop-free rewrite, so subsequent calls run the aggified version.
func (db *DB) AggifyFunction(name string, opts TransformOptions) (*TransformResult, error) {
	def, ok := db.eng.Function(name)
	if !ok {
		return nil, fmt.Errorf("aggify: unknown function %s", name)
	}
	rewritten, res, err := core.TransformFunction(def, opts.core())
	if err != nil {
		return nil, err
	}
	for _, lr := range res.Loops {
		if err := db.eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
			return nil, err
		}
	}
	if err := db.eng.RegisterFunction(rewritten); err != nil {
		return nil, err
	}
	return buildResult(name, rewritten, res), nil
}

// AggifyProcedure is AggifyFunction for stored procedures.
func (db *DB) AggifyProcedure(name string, opts TransformOptions) (*TransformResult, error) {
	def, ok := db.eng.Procedure(name)
	if !ok {
		return nil, fmt.Errorf("aggify: unknown procedure %s", name)
	}
	rewritten, res, err := core.TransformProcedure(def, opts.core())
	if err != nil {
		return nil, err
	}
	for _, lr := range res.Loops {
		if err := db.eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
			return nil, err
		}
	}
	if err := db.eng.RegisterProcedure(rewritten); err != nil {
		return nil, err
	}
	return buildResult(name, rewritten, res), nil
}

// InlineFunction Froid-inlines a (loop-free) registered UDF into a query
// string, returning the rewritten query source — the §8.2 "Aggify+"
// pipeline's second step. Functions that are not inlinable are left as
// calls.
func (db *DB) InlineFunction(query string) (string, []string, error) {
	stmts, err := parser.Parse(query)
	if err != nil {
		return "", nil, err
	}
	qs, ok := stmts[0].(*ast.QueryStmt)
	if !ok || len(stmts) != 1 {
		return "", nil, fmt.Errorf("aggify: InlineFunction expects a single SELECT")
	}
	inlined, names, err := froid.InlineInSelect(qs.Query, func(name string) (*ast.CreateFunction, bool) {
		return db.eng.Function(name)
	})
	if err != nil {
		return "", nil, err
	}
	return inlined.String(), names, nil
}

// Explain returns the physical plan chosen for a query.
func (db *DB) Explain(sql string) (string, error) {
	stmts, err := parser.Parse(sql)
	if err != nil {
		return "", err
	}
	qs, ok := stmts[0].(*ast.QueryStmt)
	if !ok || len(stmts) != 1 {
		return "", fmt.Errorf("aggify: Explain expects a single SELECT")
	}
	p, err := db.sess.PlanQuery(qs.Query, nil)
	if err != nil {
		return "", err
	}
	return p.Explain.String(), nil
}
