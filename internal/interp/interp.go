// Package interp executes the procedural dialect: scalar UDFs, stored
// procedures, scripts, cursor loops, and the bodies of interpreted custom
// aggregates. It installs itself into an engine via Install, providing the
// hooks queries use to call UDFs and custom aggregates.
//
// Cursor loops run here exactly as the paper's §2.3 describes: DECLARE
// plans the query, OPEN materializes its full result into an encoded
// worktable, FETCH NEXT decodes one row per call and updates
// @@FETCH_STATUS, and the WHILE loop re-evaluates its condition through the
// statement dispatcher each iteration. That interpreted, materializing
// execution is the baseline Aggify beats.
package interp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Install wires the interpreter's hooks into the engine.
func Install(e *engine.Engine) {
	e.FuncCaller = callFunction
	e.ProcCaller = callProcedure
	e.AggFactory = func(def *ast.CreateAggregate, orderSensitive bool) (*exec.AggSpec, error) {
		return newAggSpec(e, def, orderSensitive)
	}
}

// control-flow signals, propagated as errors.
var (
	errBreak    = errors.New("interp: BREAK outside loop")
	errContinue = errors.New("interp: CONTINUE outside loop")
)

type returnSignal struct {
	val sqltypes.Value
}

func (returnSignal) Error() string { return "interp: RETURN" }

// frame is one procedure/function invocation's variable environment.
// Mirroring T-SQL, variables are batch-scoped: a DECLARE anywhere in the
// body is visible for the rest of the invocation.
type frame struct {
	vars        map[string]sqltypes.Value
	types       map[string]sqltypes.Type
	tables      map[string]*storage.Table
	cursors     map[string]*engine.Cursor
	fetchStatus int64
}

func newFrame() *frame {
	return &frame{
		vars:    map[string]sqltypes.Value{},
		types:   map[string]sqltypes.Type{},
		tables:  map[string]*storage.Table{},
		cursors: map[string]*engine.Cursor{},
	}
}

// reset empties f for reuse, leaving it as newFrame made it.
func (f *frame) reset() {
	clear(f.vars)
	clear(f.types)
	clear(f.tables)
	clear(f.cursors)
	f.fetchStatus = 0
}

func (f *frame) lookup(name string) (sqltypes.Value, bool) {
	if name == ast.FetchStatusVar {
		return sqltypes.NewInt(f.fetchStatus), true
	}
	v, ok := f.vars[name]
	return v, ok
}

func (f *frame) assign(name string, v sqltypes.Value) error {
	t, declared := f.types[name]
	if !declared {
		return fmt.Errorf("interp: assignment to undeclared variable %s", name)
	}
	cv, err := v.CoerceTo(t)
	if err != nil {
		return fmt.Errorf("interp: assigning %s: %w", name, err)
	}
	f.vars[name] = cv
	return nil
}

func (f *frame) declare(name string, t sqltypes.Type, init sqltypes.Value) error {
	f.types[name] = t
	cv, err := init.CoerceTo(t)
	if err != nil {
		return fmt.Errorf("interp: initializing %s: %w", name, err)
	}
	f.vars[name] = cv
	return nil
}

// Runner executes statements for one invocation.
type Runner struct {
	Sess  *engine.Session
	Frame *frame
	ctx   *exec.Ctx

	// Results collects result sets from standalone SELECT statements.
	Results []ResultSet

	// Prof, when set, attributes wall time and logical reads to each
	// executed statement node (see ProfileProcedure). Nil — the normal
	// case — costs one nil check per statement.
	Prof *Profile
}

// ResultSet is one SELECT statement's output.
type ResultSet struct {
	Columns []string
	Rows    []exec.Row
}

// NewRunner creates a runner with a fresh frame.
func NewRunner(sess *engine.Session) *Runner {
	r := &Runner{Sess: sess, Frame: newFrame()}
	r.ctx = sess.Ctx(r.Frame.lookup, func(name string) (*storage.Table, bool) {
		t, ok := r.Frame.tables[name]
		return t, ok
	})
	return r
}

// Ctx returns the runner's execution context.
func (r *Runner) Ctx() *exec.Ctx { return r.ctx }

// cleanup releases frame resources at the end of an invocation; cursors
// left open (early RETURN inside a loop) drop their worktable files.
func (r *Runner) cleanup() {
	for _, cur := range r.Frame.cursors {
		cur.Deallocate()
	}
}

// eval evaluates an expression in the current frame.
func (r *Runner) eval(e ast.Expr) (sqltypes.Value, error) {
	sc, err := r.Sess.Eng.CachedScalar(r.Sess.Catalog(r.ctx.Temp), r.Sess.Opts, e)
	if err != nil {
		return sqltypes.Null, err
	}
	// Pin a read snapshot for the evaluation: scalar expressions can embed
	// subqueries, which must see the explicit transaction's own writes (or
	// a consistent statement epoch in auto-commit mode). No-op when the
	// enclosing statement already pinned one.
	defer r.Sess.PinRead(r.ctx)()
	return sc(r.ctx, nil)
}

// Run executes a statement list (a script or a body).
func (r *Runner) Run(stmts []ast.Stmt) error {
	for _, s := range stmts {
		if err := r.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

// Exec executes one statement, attributing its cost when profiling.
func (r *Runner) Exec(s ast.Stmt) error {
	if r.Prof == nil {
		return r.exec(s)
	}
	start := time.Now()
	readsBefore := r.Sess.Stats.LogicalReads.Load()
	err := r.exec(s)
	st := r.Prof.stat(s)
	st.count++
	st.wall += time.Since(start)
	st.reads += r.Sess.Stats.LogicalReads.Load() - readsBefore
	return err
}

// exec dispatches one statement.
func (r *Runner) exec(s ast.Stmt) error {
	if r.ctx.Interrupted() {
		return exec.ErrInterrupted
	}
	switch st := s.(type) {
	case *ast.Block:
		return r.Run(st.Stmts)
	case *ast.DeclareVar:
		init := sqltypes.Null
		if st.Init != nil {
			v, err := r.eval(st.Init)
			if err != nil {
				return err
			}
			init = v
		}
		return r.Frame.declare(st.Name, st.Type, init)
	case *ast.DeclareTable:
		cols := make([]storage.Column, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = storage.Col(c.Name, c.Type)
		}
		r.Frame.tables[st.Name] = storage.NewTable(st.Name, storage.NewSchema(cols...))
		return nil
	case *ast.SetStmt:
		return r.execSet(st)
	case *ast.IfStmt:
		cond, err := r.eval(st.Cond)
		if err != nil {
			return err
		}
		if cond.Truthy() {
			return r.Exec(st.Then)
		}
		if st.Else != nil {
			return r.Exec(st.Else)
		}
		return nil
	case *ast.WhileStmt:
		for {
			cond, err := r.eval(st.Cond)
			if err != nil {
				return err
			}
			if !cond.Truthy() {
				return nil
			}
			if err := r.Exec(st.Body); err != nil {
				if err == errBreak {
					return nil
				}
				if err == errContinue {
					continue
				}
				return err
			}
		}
	case *ast.ForStmt:
		return r.execFor(st)
	case *ast.BreakStmt:
		return errBreak
	case *ast.ContinueStmt:
		return errContinue
	case *ast.ReturnStmt:
		val := sqltypes.Null
		if st.Value != nil {
			v, err := r.eval(st.Value)
			if err != nil {
				return err
			}
			val = v
		}
		return returnSignal{val: val}
	case *ast.DeclareCursor:
		r.Frame.cursors[st.Name] = engine.NewCursor(st.Name, st.Query)
		return nil
	case *ast.OpenCursor:
		cur, ok := r.Frame.cursors[st.Name]
		if !ok {
			return fmt.Errorf("interp: undeclared cursor %s", st.Name)
		}
		return cur.Open(r.Sess, r.ctx)
	case *ast.CloseCursor:
		cur, ok := r.Frame.cursors[st.Name]
		if !ok {
			return fmt.Errorf("interp: undeclared cursor %s", st.Name)
		}
		return cur.Close()
	case *ast.DeallocateCursor:
		cur, ok := r.Frame.cursors[st.Name]
		if !ok {
			return fmt.Errorf("interp: undeclared cursor %s", st.Name)
		}
		cur.Deallocate()
		delete(r.Frame.cursors, st.Name)
		return nil
	case *ast.FetchStmt:
		return r.execFetch(st)
	case *ast.QueryStmt:
		cols, rows, err := r.Sess.Query(st.Query, r.ctx)
		if err != nil {
			return err
		}
		r.Results = append(r.Results, ResultSet{Columns: cols, Rows: rows})
		return nil
	case *ast.ExplainStmt:
		lines, err := r.Sess.ExplainQuery(st.Query, st.Analyze, r.ctx)
		if err != nil {
			return err
		}
		rows := make([]exec.Row, len(lines))
		for i, l := range lines {
			rows[i] = exec.Row{sqltypes.NewString(l)}
		}
		r.Results = append(r.Results, ResultSet{Columns: []string{"plan"}, Rows: rows})
		return nil
	case *ast.ExplainProcStmt:
		return r.execExplainProc(st)
	case *ast.InsertStmt:
		_, err := r.Sess.Insert(st, r.ctx)
		return err
	case *ast.UpdateStmt:
		_, err := r.Sess.Update(st, r.ctx)
		return err
	case *ast.DeleteStmt:
		_, err := r.Sess.Delete(st, r.ctx)
		return err
	case *ast.TryCatch:
		err := r.Exec(st.Try)
		if err == nil {
			return nil
		}
		// Control-flow signals and interrupts pass through; genuine errors
		// are caught.
		if err == errBreak || err == errContinue || err == exec.ErrInterrupted {
			return err
		}
		if _, isReturn := err.(returnSignal); isReturn {
			return err
		}
		return r.Exec(st.Catch)
	case *ast.TxnStmt:
		switch st.Op {
		case ast.TxnBegin:
			return r.Sess.BeginTxn()
		case ast.TxnCommit:
			return r.Sess.CommitTxn()
		default:
			return r.Sess.RollbackTxn()
		}
	case *ast.PrintStmt:
		v, err := r.eval(st.E)
		if err != nil {
			return err
		}
		r.Sess.Print(v.Display())
		return nil
	case *ast.ExecStmt:
		return r.execProc(st)
	case *ast.TraceProcStmt:
		return r.execTraceProc(st)
	case *ast.CreateTable:
		return r.execCreateTable(st)
	case *ast.CreateIndex:
		return r.Sess.Eng.CreateIndex(st.Table, st.Column)
	case *ast.CreateFunction:
		return r.Sess.Eng.RegisterFunction(st)
	case *ast.CreateProcedure:
		return r.Sess.Eng.RegisterProcedure(st)
	case *ast.CreateAggregate:
		return r.Sess.Eng.RegisterAggregate(st, false)
	}
	return fmt.Errorf("interp: cannot execute %T", s)
}

func (r *Runner) execCreateTable(st *ast.CreateTable) error {
	cols := make([]storage.Column, len(st.Cols))
	for i, c := range st.Cols {
		cols[i] = storage.Col(c.Name, c.Type)
	}
	schema := storage.NewSchema(cols...)
	if strings.HasPrefix(st.Name, "#") {
		r.Sess.CreateTempTable(st.Name, schema)
		return nil
	}
	_, err := r.Sess.Eng.CreateTable(st.Name, schema)
	return err
}

func (r *Runner) execSet(st *ast.SetStmt) error {
	v, err := r.eval(st.Value)
	if err != nil {
		return err
	}
	if len(st.Targets) == 1 {
		return r.Frame.assign(st.Targets[0], v)
	}
	// Tuple destructuring: SET (@a, @b) = (SELECT Agg(...) ...). A NULL
	// (empty result) assigns NULL to every target.
	var parts []sqltypes.Value
	switch {
	case v.Kind() == sqltypes.KindTuple:
		parts = v.Tuple()
	case v.IsNull():
		parts = make([]sqltypes.Value, len(st.Targets))
	default:
		return fmt.Errorf("interp: SET with %d targets requires a tuple value", len(st.Targets))
	}
	if len(parts) != len(st.Targets) {
		return fmt.Errorf("interp: SET targets %d but value has %d attributes", len(st.Targets), len(parts))
	}
	for i, name := range st.Targets {
		if err := r.Frame.assign(name, parts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) execFor(st *ast.ForStmt) error {
	initV, err := r.eval(st.InitExpr)
	if err != nil {
		return err
	}
	if err := r.Frame.assign(st.InitVar, initV); err != nil {
		return err
	}
	for {
		cond, err := r.eval(st.Cond)
		if err != nil {
			return err
		}
		if !cond.Truthy() {
			return nil
		}
		if err := r.Exec(st.Body); err != nil {
			if err == errBreak {
				return nil
			}
			if err != errContinue {
				return err
			}
		}
		postV, err := r.eval(st.PostExpr)
		if err != nil {
			return err
		}
		if err := r.Frame.assign(st.PostVar, postV); err != nil {
			return err
		}
	}
}

func (r *Runner) execFetch(st *ast.FetchStmt) error {
	cur, ok := r.Frame.cursors[st.Cursor]
	if !ok {
		return fmt.Errorf("interp: undeclared cursor %s", st.Cursor)
	}
	row, more, err := cur.Fetch()
	if err != nil {
		return err
	}
	if !more {
		// End of cursor: variables keep their values, status goes to -1.
		r.Frame.fetchStatus = -1
		return nil
	}
	if len(row) != len(st.Into) {
		return fmt.Errorf("interp: FETCH INTO %d variables but cursor %s yields %d columns", len(st.Into), st.Cursor, len(row))
	}
	for i, name := range st.Into {
		if err := r.Frame.assign(name, row[i]); err != nil {
			return err
		}
	}
	r.Frame.fetchStatus = 0
	if r.Prof != nil {
		r.Prof.fetchOK[st]++
	}
	return nil
}

func (r *Runner) execProc(st *ast.ExecStmt) error {
	def, ok := r.Sess.Eng.Procedure(st.Proc)
	if !ok {
		return fmt.Errorf("interp: unknown procedure %s", st.Proc)
	}
	args := make([]sqltypes.Value, len(st.Args))
	for i, a := range st.Args {
		v, err := r.eval(a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	return callProcedure(r.Sess, r.ctx, def, args)
}

// execTraceProc runs TRACE PROCEDURE: the named procedure executes under a
// profiling runner (side effects happen, like EXEC) and the attribution
// report becomes a one-column result set.
func (r *Runner) execTraceProc(st *ast.TraceProcStmt) error {
	args := make([]sqltypes.Value, len(st.Args))
	for i, a := range st.Args {
		v, err := r.eval(a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	prof, err := ProfileProcedure(r.Sess, st.Proc, args...)
	if err != nil {
		return err
	}
	lines := prof.Lines()
	rows := make([]exec.Row, len(lines))
	for i, l := range lines {
		rows[i] = exec.Row{sqltypes.NewString(l)}
	}
	r.Results = append(r.Results, ResultSet{Columns: []string{"profile"}, Rows: rows})
	return nil
}

// bindParams populates a frame with declared parameters, applying defaults.
func bindParams(f *frame, params []ast.Param, args []sqltypes.Value, evalDefault func(ast.Expr) (sqltypes.Value, error)) error {
	if len(args) > len(params) {
		return fmt.Errorf("interp: %d arguments for %d parameters", len(args), len(params))
	}
	for i, p := range params {
		var v sqltypes.Value
		switch {
		case i < len(args):
			v = args[i]
		case p.Default != nil:
			dv, err := evalDefault(p.Default)
			if err != nil {
				return err
			}
			v = dv
		default:
			return fmt.Errorf("interp: missing argument for parameter %s", p.Name)
		}
		if err := f.declare(p.Name, p.Type, v); err != nil {
			return err
		}
	}
	return nil
}

// callFunction implements the engine's FuncCaller hook: compile-first —
// the body runs as compiled closures (with per-statement interpreter
// bridging) when it can, and falls back to the tree-walking interpreter
// otherwise. Either way the RETURN value is coerced to the declared
// return type.
func callFunction(s *engine.Session, _ *exec.Ctx, def *ast.CreateFunction, args []sqltypes.Value) (sqltypes.Value, error) {
	if rt := routineFor(s.Eng, def); rt != nil {
		ret, err := rt.call(s, args)
		if err != nil {
			return sqltypes.Null, err
		}
		v, cerr := ret.CoerceTo(def.Returns)
		if cerr != nil {
			return sqltypes.Null, fmt.Errorf("interp: return value of %s: %w", def.Name, cerr)
		}
		return v, nil
	}
	return callFunctionInterpreted(s, def, args)
}

// callFunctionInterpreted is the tree-walking tier of callFunction.
func callFunctionInterpreted(s *engine.Session, def *ast.CreateFunction, args []sqltypes.Value) (sqltypes.Value, error) {
	r := NewRunner(s)
	defer r.cleanup()
	if err := bindParams(r.Frame, def.Params, args, r.eval); err != nil {
		return sqltypes.Null, fmt.Errorf("interp: calling %s: %w", def.Name, err)
	}
	err := r.Run(def.Body.Stmts)
	if err == nil {
		// Fell off the end without RETURN.
		return sqltypes.Null, nil
	}
	ret, ok := err.(returnSignal)
	if !ok {
		return sqltypes.Null, err
	}
	v, cerr := ret.val.CoerceTo(def.Returns)
	if cerr != nil {
		return sqltypes.Null, fmt.Errorf("interp: return value of %s: %w", def.Name, cerr)
	}
	return v, nil
}

// callProcedure implements the engine's ProcCaller hook, compile-first
// like callFunction.
func callProcedure(s *engine.Session, _ *exec.Ctx, def *ast.CreateProcedure, args []sqltypes.Value) error {
	if rt := routineFor(s.Eng, def); rt != nil {
		_, err := rt.call(s, args)
		return err
	}
	return callProcedureInterpreted(s, def, args)
}

// callProcedureInterpreted is the tree-walking tier of callProcedure.
func callProcedureInterpreted(s *engine.Session, def *ast.CreateProcedure, args []sqltypes.Value) error {
	r := NewRunner(s)
	defer r.cleanup()
	if err := bindParams(r.Frame, def.Params, args, r.eval); err != nil {
		return fmt.Errorf("interp: calling %s: %w", def.Name, err)
	}
	err := r.Run(def.Body.Stmts)
	if _, isReturn := err.(returnSignal); isReturn {
		return nil
	}
	return err
}

// RunScript parses nothing — it executes pre-parsed statements against a
// session with a fresh frame and returns the collected result sets.
func RunScript(s *engine.Session, stmts []ast.Stmt) ([]ResultSet, error) {
	r := NewRunner(s)
	defer r.cleanup()
	err := r.Run(stmts)
	if _, isReturn := err.(returnSignal); isReturn {
		err = nil
	}
	return r.Results, err
}

// RunScriptSpans executes pre-parsed statements like RunScript, but also
// records each top-level statement into the session's fingerprint stats
// using its source span (so aggify_stat_statements attributes time, rows,
// reads, and WAL bytes per normalized statement template). spans must be
// parallel to stmts, as returned by parser.ParseSpans.
func RunScriptSpans(s *engine.Session, src string, stmts []ast.Stmt, spans []parser.Span) ([]ResultSet, error) {
	if len(spans) != len(stmts) {
		return RunScript(s, stmts)
	}
	r := NewRunner(s)
	defer r.cleanup()
	for i, st := range stmts {
		sp := spans[i]
		rec := s.BeginStmt(src[sp.Start:sp.End])
		err := r.Exec(st)
		if _, isReturn := err.(returnSignal); isReturn {
			err = nil
			s.EndStmt(rec, nil)
			break
		}
		s.EndStmt(rec, err)
		if err != nil {
			return r.Results, err
		}
	}
	return r.Results, nil
}

// CallFunctionByName invokes a registered scalar UDF (helper for tests,
// benchmarks, and the public facade).
func CallFunctionByName(s *engine.Session, name string, args ...sqltypes.Value) (sqltypes.Value, error) {
	def, ok := s.Eng.Function(name)
	if !ok {
		return sqltypes.Null, fmt.Errorf("interp: unknown function %s", name)
	}
	return callFunction(s, nil, def, args)
}

// CallProcedureByName invokes a registered stored procedure.
func CallProcedureByName(s *engine.Session, name string, args ...sqltypes.Value) error {
	def, ok := s.Eng.Procedure(name)
	if !ok {
		return fmt.Errorf("interp: unknown procedure %s", name)
	}
	return callProcedure(s, nil, def, args)
}

// CallFunctionInterpreted invokes a scalar UDF through the tree-walking
// interpreter, bypassing the compiled pipeline. Exists for equivalence
// tests and the slow side of TestSameProcessSpeedups' proc_compile pair
// (compiled ÷ interpreted).
func CallFunctionInterpreted(s *engine.Session, name string, args ...sqltypes.Value) (sqltypes.Value, error) {
	def, ok := s.Eng.Function(name)
	if !ok {
		return sqltypes.Null, fmt.Errorf("interp: unknown function %s", name)
	}
	return callFunctionInterpreted(s, def, args)
}

// CallProcedureInterpreted invokes a stored procedure through the
// tree-walking interpreter, bypassing the compiled pipeline.
func CallProcedureInterpreted(s *engine.Session, name string, args ...sqltypes.Value) error {
	def, ok := s.Eng.Procedure(name)
	if !ok {
		return fmt.Errorf("interp: unknown procedure %s", name)
	}
	return callProcedureInterpreted(s, def, args)
}
