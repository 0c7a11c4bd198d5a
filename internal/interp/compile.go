package interp

import (
	"fmt"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// The block compiler turns the method bodies of a generated custom
// aggregate into Go closure chains over a slot-based variable frame. This
// mirrors the paper's prototype, which emits *compiled* C# aggregates while
// cursor loops remain interpreted T-SQL (§9): the asymmetry is part of why
// Aggify wins, so the reproduction preserves it mechanically. Bodies that
// use statements outside the compilable subset fall back to the interpreted
// aggregate path transparently.

// compiledStmt executes one compiled statement against a machine.
type compiledStmt func(m *machine) error

// evalFn evaluates one compiled scalar expression against a machine. In
// routine mode, expressions that can touch stored data (subqueries, UDF
// calls) pin a read snapshot around the evaluation, exactly as the
// interpreter's eval does; aggregate bodies always run inside a query
// that already pinned one, so their evalFns skip the check entirely.
type evalFn func(m *machine) (sqltypes.Value, error)

// tableDef is the schema prototype of a compiled DECLARE TABLE.
type tableDef struct {
	slot   int
	name   string
	schema *storage.Schema
}

// cursorDef is a compiled DECLARE CURSOR.
type cursorDef struct {
	slot  int
	name  string
	query *ast.Select
}

// program is a fully compiled aggregate definition.
type program struct {
	def *ast.CreateAggregate

	slotIndex map[string]int
	slotTypes []sqltypes.Type
	nSlots    int
	fetchSlot int

	tableIndex map[string]int
	tableDefs  []tableDef
	nTables    int

	cursorIndex map[string]int
	nCursors    int

	paramSlots []int

	init, accum, term compiledStmt
	// merge, when non-nil, folds another instance's state (pre-copied into
	// the @other_<field> slots) into this one.
	merge compiledStmt
	// mergeCopies maps each field's slot (in the other instance) to the
	// corresponding @other_<field> slot in this instance.
	mergeCopies []slotPair
}

// slotPair is one field → @other_<field> slot mapping for Merge.
type slotPair struct{ from, to int }

// machine is one executing instance of a compiled program.
type machine struct {
	prog    *program
	sess    *engine.Session
	ctx     *exec.Ctx
	slots   []sqltypes.Value
	tables  []*storage.Table
	cursors []*engine.Cursor
}

func newMachine(prog *program, sess *engine.Session) *machine {
	m := &machine{
		prog:    prog,
		sess:    sess,
		slots:   make([]sqltypes.Value, prog.nSlots),
		tables:  make([]*storage.Table, prog.nTables),
		cursors: make([]*engine.Cursor, prog.nCursors),
	}
	m.ctx = sess.Ctx(
		func(name string) (sqltypes.Value, bool) {
			if i, ok := prog.slotIndex[name]; ok {
				return m.slots[i], true
			}
			return sqltypes.Null, false
		},
		func(name string) (*storage.Table, bool) {
			if i, ok := prog.tableIndex[name]; ok && m.tables[i] != nil {
				return m.tables[i], true
			}
			return nil, false
		},
	)
	m.ctx.VarSlots = m.slots
	return m
}

func (m *machine) assign(slot int, v sqltypes.Value) error {
	cv, err := v.CoerceTo(m.prog.slotTypes[slot])
	if err != nil {
		return err
	}
	m.slots[slot] = cv
	return nil
}

// blockCompiler compiles one aggregate definition or routine body.
type blockCompiler struct {
	eng  *engine.Engine
	prog *program
	cat  plan.Catalog
	// opts plan the queries inside the body's expressions: a routine's
	// are those of the session that compiled it, an aggregate's the
	// defaults.
	opts plan.Options

	// bridge enables statement-level fallthrough to the interpreter:
	// statements outside the compilable subset (or whose scalar
	// expressions fail to compile, e.g. against a table that only exists
	// at runtime) execute through a per-statement interpreter bridge
	// instead of failing the whole compilation. Aggregate bodies keep
	// bridge=false — an uncompilable aggregate falls back wholesale to
	// the interpreted aggregate, preserving the paper's §9 asymmetry.
	bridge bool
	// pinEvals marks routine mode: scalar evaluations that can read
	// stored data pin their own statement-level read snapshot.
	pinEvals bool

	// tiers records the per-statement compile/interpret decision for
	// EXPLAIN PROCEDURE and the coverage meter (routine mode only).
	tiers []StmtTier
	depth int
}

// compileAggregate compiles def; a nil program with a non-nil error means
// the body is outside the compilable subset (caller falls back to the
// interpreter).
func compileAggregate(eng *engine.Engine, def *ast.CreateAggregate) (*program, error) {
	prog := &program{
		def:         def,
		slotIndex:   map[string]int{},
		tableIndex:  map[string]int{},
		cursorIndex: map[string]int{},
	}
	bc := &blockCompiler{eng: eng, prog: prog}

	addSlot := func(name string, t sqltypes.Type) int {
		if i, ok := prog.slotIndex[name]; ok {
			prog.slotTypes[i] = t
			return i
		}
		i := prog.nSlots
		prog.slotIndex[name] = i
		prog.slotTypes = append(prog.slotTypes, t)
		prog.nSlots++
		return i
	}
	prog.fetchSlot = addSlot(ast.FetchStatusVar, sqltypes.Int)
	for _, f := range def.Fields {
		addSlot(f.Name, f.Type)
	}
	for _, p := range def.Params {
		prog.paramSlots = append(prog.paramSlots, addSlot(p.Name, p.Type))
	}
	// Pre-scan: declare slots, table prototypes, and cursor indexes for
	// everything in the three method bodies.
	protoTables := map[string]*storage.Table{}
	var scan func(s ast.Stmt) error
	scan = func(s ast.Stmt) error {
		var err error
		ast.WalkStmt(s, func(st ast.Stmt) bool {
			switch x := st.(type) {
			case *ast.DeclareVar:
				addSlot(x.Name, x.Type)
			case *ast.DeclareTable:
				if _, ok := prog.tableIndex[x.Name]; !ok {
					cols := make([]storage.Column, len(x.Cols))
					for i, c := range x.Cols {
						cols[i] = storage.Col(c.Name, c.Type)
					}
					schema := storage.NewSchema(cols...)
					prog.tableIndex[x.Name] = prog.nTables
					prog.tableDefs = append(prog.tableDefs, tableDef{slot: prog.nTables, name: x.Name, schema: schema})
					prog.nTables++
					protoTables[x.Name] = storage.NewTable(x.Name, schema)
				}
			case *ast.DeclareCursor:
				if _, ok := prog.cursorIndex[x.Name]; !ok {
					prog.cursorIndex[x.Name] = prog.nCursors
					prog.nCursors++
				}
			case *ast.QueryStmt:
				err = fmt.Errorf("interp: result-set SELECT is not compilable")
			case *ast.ExecStmt:
				err = fmt.Errorf("interp: EXEC is not compilable")
			case *ast.CreateTable, *ast.CreateIndex, *ast.CreateFunction, *ast.CreateProcedure, *ast.CreateAggregate:
				err = fmt.Errorf("interp: DDL is not compilable")
			}
			return err == nil
		})
		return err
	}
	bodies := []*ast.Block{def.Init, def.Accum, def.Terminate}
	if def.Merge != nil {
		// The Merge body sees the other instance's fields as @other_<field>
		// variables; give each its own slot alongside the regular fields.
		for _, f := range def.Fields {
			other := ast.OtherFieldVar(f.Name)
			prog.mergeCopies = append(prog.mergeCopies, slotPair{from: prog.slotIndex[f.Name], to: addSlot(other, f.Type)})
		}
		bodies = append(bodies, def.Merge)
	}
	for _, b := range bodies {
		if err := scan(b); err != nil {
			return nil, err
		}
	}
	bc.cat = eng.CatalogWithTemp(func(name string) (*storage.Table, bool) {
		t, ok := protoTables[name]
		return t, ok
	})

	var err error
	if prog.init, err = bc.stmt(def.Init); err != nil {
		return nil, err
	}
	if prog.accum, err = bc.stmt(def.Accum); err != nil {
		return nil, err
	}
	if prog.term, err = bc.stmt(def.Terminate); err != nil {
		return nil, err
	}
	if def.Merge != nil {
		if prog.merge, err = bc.stmt(def.Merge); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// scalar compiles an expression with slot-resolved variables.
func (bc *blockCompiler) scalar(e ast.Expr) (evalFn, error) {
	sc, err := plan.CompileScalarSlots(bc.cat, bc.opts, e, bc.prog.slotIndex)
	if err != nil {
		return nil, err
	}
	if bc.pinEvals && bc.exprReadsData(e) {
		return func(m *machine) (sqltypes.Value, error) {
			defer m.sess.PinRead(m.ctx)()
			return sc(m.ctx, nil)
		}, nil
	}
	return func(m *machine) (sqltypes.Value, error) { return sc(m.ctx, nil) }, nil
}

// exprReadsData reports whether evaluating e can read stored data: it
// contains a subquery, an IN (SELECT ...), or a call to a registered UDF
// (whose body may query). Pure arithmetic over slots skips snapshot
// pinning on the compiled hot path.
func (bc *blockCompiler) exprReadsData(e ast.Expr) bool {
	reads := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		switch q := x.(type) {
		case *ast.Subquery:
			reads = true
		case *ast.InExpr:
			if q.Query != nil {
				reads = true
			}
		case *ast.FuncCall:
			if _, ok := bc.eng.Function(q.Name); ok {
				reads = true
			}
		}
		return !reads
	})
	return reads
}

// child compiles a nested statement: with the bridge enabled, a
// statement that fails native compilation (or is outside the compilable
// subset by construction) becomes an interpreter-bridge closure instead
// of an error, and the decision is recorded for EXPLAIN PROCEDURE.
func (bc *blockCompiler) child(s ast.Stmt) (compiledStmt, error) {
	if !bc.bridge {
		return bc.stmt(s)
	}
	if _, ok := s.(*ast.Block); ok {
		// A block is pure sequencing: no tier entry of its own, and its
		// children record at the current depth.
		return bc.stmt(s)
	}
	idx := len(bc.tiers)
	bc.tiers = append(bc.tiers, StmtTier{Text: stmtLabel(s), Depth: bc.depth, Leaf: !isContainer(s), node: s})
	if why, always := interpretedOnly(s); always {
		bc.tiers[idx].Tier, bc.tiers[idx].Why = TierInterpreted, why
		return bc.bridgeStmt(s), nil
	}
	bc.depth++
	c, err := bc.stmt(s)
	bc.depth--
	if err != nil {
		// Drop the partial entries of any children compiled before the
		// failure: the whole statement executes via the bridge.
		bc.tiers = bc.tiers[:idx+1]
		bc.tiers[idx].Tier, bc.tiers[idx].Why = TierInterpreted, strings.TrimPrefix(err.Error(), "interp: ")
		return bc.bridgeStmt(s), nil
	}
	bc.tiers[idx].Tier = TierCompiled
	return c, nil
}

// bridgeStmt wraps one statement in the per-statement interpreter
// bridge: slots, tables, cursors, and @@fetch_status are copied into a
// fresh interpreter frame, the statement runs through the tree-walking
// dispatcher, and every piece of state is copied back — including on
// control-flow signals and errors, where partial effects must remain
// visible exactly as they would interpreting the whole body.
func (bc *blockCompiler) bridgeStmt(s ast.Stmt) compiledStmt {
	return func(m *machine) error { return m.runBridged(s) }
}

func (m *machine) runBridged(s ast.Stmt) error {
	prog := m.prog
	r := NewRunner(m.sess)
	f := r.Frame
	for name, i := range prog.slotIndex {
		if name == ast.FetchStatusVar {
			continue
		}
		f.types[name] = prog.slotTypes[i]
		f.vars[name] = m.slots[i]
	}
	if v := m.slots[prog.fetchSlot]; v.Kind() == sqltypes.KindInt {
		f.fetchStatus = v.Int()
	}
	for name, i := range prog.tableIndex {
		if m.tables[i] != nil {
			f.tables[name] = m.tables[i]
		}
	}
	for name, i := range prog.cursorIndex {
		if m.cursors[i] != nil {
			f.cursors[name] = m.cursors[i]
		}
	}
	err := r.exec(s)
	for name, i := range prog.slotIndex {
		if name == ast.FetchStatusVar {
			continue
		}
		if v, ok := f.vars[name]; ok {
			m.slots[i] = v
		}
	}
	m.slots[prog.fetchSlot] = sqltypes.NewInt(f.fetchStatus)
	for name, i := range prog.tableIndex {
		m.tables[i] = f.tables[name]
	}
	for name, i := range prog.cursorIndex {
		m.cursors[i] = f.cursors[name]
	}
	return err
}

// stmt compiles one statement.
func (bc *blockCompiler) stmt(s ast.Stmt) (compiledStmt, error) {
	switch st := s.(type) {
	case *ast.Block:
		seq := make([]compiledStmt, len(st.Stmts))
		for i, inner := range st.Stmts {
			c, err := bc.child(inner)
			if err != nil {
				return nil, err
			}
			seq[i] = c
		}
		return func(m *machine) error {
			for _, c := range seq {
				if err := c(m); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ast.DeclareVar:
		slot := bc.prog.slotIndex[st.Name]
		if st.Init == nil {
			return func(m *machine) error {
				m.slots[slot] = sqltypes.Null
				return nil
			}, nil
		}
		init, err := bc.scalar(st.Init)
		if err != nil {
			return nil, err
		}
		return func(m *machine) error {
			v, err := init(m)
			if err != nil {
				return err
			}
			return m.assign(slot, v)
		}, nil
	case *ast.DeclareTable:
		idx := bc.prog.tableIndex[st.Name]
		def := bc.prog.tableDefs[idx]
		return func(m *machine) error {
			m.tables[idx] = storage.NewTable(def.name, def.schema)
			return nil
		}, nil
	case *ast.SetStmt:
		val, err := bc.scalar(st.Value)
		if err != nil {
			return nil, err
		}
		slots := make([]int, len(st.Targets))
		for i, tgt := range st.Targets {
			slot, ok := bc.prog.slotIndex[tgt]
			if !ok {
				return nil, fmt.Errorf("interp: assignment to undeclared variable %s", tgt)
			}
			slots[i] = slot
		}
		if len(slots) == 1 {
			slot := slots[0]
			return func(m *machine) error {
				v, err := val(m)
				if err != nil {
					return err
				}
				return m.assign(slot, v)
			}, nil
		}
		return func(m *machine) error {
			v, err := val(m)
			if err != nil {
				return err
			}
			var parts []sqltypes.Value
			switch {
			case v.Kind() == sqltypes.KindTuple:
				parts = v.Tuple()
			case v.IsNull():
				parts = make([]sqltypes.Value, len(slots))
			default:
				return fmt.Errorf("interp: SET with %d targets requires a tuple", len(slots))
			}
			if len(parts) != len(slots) {
				return fmt.Errorf("interp: SET targets %d but value has %d attributes", len(slots), len(parts))
			}
			for i, slot := range slots {
				if err := m.assign(slot, parts[i]); err != nil {
					return err
				}
			}
			return nil
		}, nil
	case *ast.IfStmt:
		cond, err := bc.scalar(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := bc.child(st.Then)
		if err != nil {
			return nil, err
		}
		var els compiledStmt
		if st.Else != nil {
			if els, err = bc.child(st.Else); err != nil {
				return nil, err
			}
		}
		return func(m *machine) error {
			v, err := cond(m)
			if err != nil {
				return err
			}
			if v.Truthy() {
				return then(m)
			}
			if els != nil {
				return els(m)
			}
			return nil
		}, nil
	case *ast.WhileStmt:
		cond, err := bc.scalar(st.Cond)
		if err != nil {
			return nil, err
		}
		body, err := bc.child(st.Body)
		if err != nil {
			return nil, err
		}
		return func(m *machine) error {
			for {
				if m.ctx.Interrupted() {
					return exec.ErrInterrupted
				}
				v, err := cond(m)
				if err != nil {
					return err
				}
				if !v.Truthy() {
					return nil
				}
				if err := body(m); err != nil {
					if err == errBreak {
						return nil
					}
					if err == errContinue {
						continue
					}
					return err
				}
			}
		}, nil
	case *ast.ForStmt:
		initSlot, ok := bc.prog.slotIndex[st.InitVar]
		if !ok {
			return nil, fmt.Errorf("interp: assignment to undeclared variable %s", st.InitVar)
		}
		postSlot, ok := bc.prog.slotIndex[st.PostVar]
		if !ok {
			return nil, fmt.Errorf("interp: assignment to undeclared variable %s", st.PostVar)
		}
		initE, err := bc.scalar(st.InitExpr)
		if err != nil {
			return nil, err
		}
		condE, err := bc.scalar(st.Cond)
		if err != nil {
			return nil, err
		}
		postE, err := bc.scalar(st.PostExpr)
		if err != nil {
			return nil, err
		}
		body, err := bc.child(st.Body)
		if err != nil {
			return nil, err
		}
		return func(m *machine) error {
			v, err := initE(m)
			if err != nil {
				return err
			}
			if err := m.assign(initSlot, v); err != nil {
				return err
			}
			for {
				cv, err := condE(m)
				if err != nil {
					return err
				}
				if !cv.Truthy() {
					return nil
				}
				if err := body(m); err != nil {
					if err == errBreak {
						return nil
					}
					if err != errContinue {
						return err
					}
				}
				pv, err := postE(m)
				if err != nil {
					return err
				}
				if err := m.assign(postSlot, pv); err != nil {
					return err
				}
			}
		}, nil
	case *ast.BreakStmt:
		return func(*machine) error { return errBreak }, nil
	case *ast.ContinueStmt:
		return func(*machine) error { return errContinue }, nil
	case *ast.ReturnStmt:
		if st.Value == nil {
			return func(*machine) error { return returnSignal{val: sqltypes.Null} }, nil
		}
		val, err := bc.scalar(st.Value)
		if err != nil {
			return nil, err
		}
		return func(m *machine) error {
			v, err := val(m)
			if err != nil {
				return err
			}
			return returnSignal{val: v}
		}, nil
	case *ast.DeclareCursor:
		idx := bc.prog.cursorIndex[st.Name]
		query := st.Query
		name := st.Name
		return func(m *machine) error {
			m.cursors[idx] = engine.NewCursor(name, query)
			return nil
		}, nil
	case *ast.OpenCursor:
		idx, ok := bc.prog.cursorIndex[st.Name]
		if !ok {
			return nil, fmt.Errorf("interp: undeclared cursor %s", st.Name)
		}
		return func(m *machine) error {
			if m.cursors[idx] == nil {
				return fmt.Errorf("interp: cursor %s not declared", st.Name)
			}
			return m.cursors[idx].Open(m.sess, m.ctx)
		}, nil
	case *ast.CloseCursor:
		idx, ok := bc.prog.cursorIndex[st.Name]
		if !ok {
			return nil, fmt.Errorf("interp: undeclared cursor %s", st.Name)
		}
		return func(m *machine) error { return m.cursors[idx].Close() }, nil
	case *ast.DeallocateCursor:
		idx, ok := bc.prog.cursorIndex[st.Name]
		if !ok {
			return nil, fmt.Errorf("interp: undeclared cursor %s", st.Name)
		}
		return func(m *machine) error {
			m.cursors[idx].Deallocate()
			return nil
		}, nil
	case *ast.FetchStmt:
		idx, ok := bc.prog.cursorIndex[st.Cursor]
		if !ok {
			return nil, fmt.Errorf("interp: undeclared cursor %s", st.Cursor)
		}
		slots := make([]int, len(st.Into))
		for i, v := range st.Into {
			s, ok := bc.prog.slotIndex[v]
			if !ok {
				return nil, fmt.Errorf("interp: FETCH into undeclared variable %s", v)
			}
			slots[i] = s
		}
		fetchSlot := bc.prog.fetchSlot
		return func(m *machine) error {
			row, more, err := m.cursors[idx].Fetch()
			if err != nil {
				return err
			}
			if !more {
				m.slots[fetchSlot] = sqltypes.NewInt(-1)
				return nil
			}
			if len(row) != len(slots) {
				return fmt.Errorf("interp: FETCH arity mismatch")
			}
			for i, slot := range slots {
				if err := m.assign(slot, row[i]); err != nil {
					return err
				}
			}
			m.slots[fetchSlot] = sqltypes.NewInt(0)
			return nil
		}, nil
	case *ast.InsertStmt:
		return func(m *machine) error {
			_, err := m.sess.Insert(st, m.ctx)
			return err
		}, nil
	case *ast.UpdateStmt:
		return func(m *machine) error {
			_, err := m.sess.Update(st, m.ctx)
			return err
		}, nil
	case *ast.DeleteStmt:
		return func(m *machine) error {
			_, err := m.sess.Delete(st, m.ctx)
			return err
		}, nil
	case *ast.PrintStmt:
		val, err := bc.scalar(st.E)
		if err != nil {
			return nil, err
		}
		return func(m *machine) error {
			v, err := val(m)
			if err != nil {
				return err
			}
			m.sess.Print(v.Display())
			return nil
		}, nil
	case *ast.TryCatch:
		try, err := bc.child(st.Try)
		if err != nil {
			return nil, err
		}
		catch, err := bc.child(st.Catch)
		if err != nil {
			return nil, err
		}
		return func(m *machine) error {
			err := try(m)
			if err == nil || err == errBreak || err == errContinue || err == exec.ErrInterrupted {
				return err
			}
			if _, isReturn := err.(returnSignal); isReturn {
				return err
			}
			return catch(m)
		}, nil
	case *ast.TxnStmt:
		op := st.Op
		return func(m *machine) error {
			switch op {
			case ast.TxnBegin:
				return m.sess.BeginTxn()
			case ast.TxnCommit:
				return m.sess.CommitTxn()
			default:
				return m.sess.RollbackTxn()
			}
		}, nil
	}
	return nil, fmt.Errorf("interp: statement %T is not compilable", s)
}

// compiledAgg is a compiled custom aggregate instance.
type compiledAgg struct {
	prog     *program
	m        *machine
	needInit bool
}

// Reset implements exec.Aggregator. A used instance keeps its machine, and
// with it the machine's context and cached subquery trees, but every slot,
// table and cursor is cleared: afterwards it runs exactly as a new instance
// would.
func (a *compiledAgg) Reset() {
	a.needInit = true
	if m := a.m; m != nil {
		clear(m.slots)
		clear(m.tables)
		for _, c := range m.cursors {
			if c != nil {
				c.Deallocate()
			}
		}
		clear(m.cursors)
	}
}

func (a *compiledAgg) ensure(ctx *exec.Ctx) error {
	if a.m == nil {
		sess, ok := ctx.Owner.(*engine.Session)
		if !ok {
			return fmt.Errorf("interp: aggregate %s executed without a session context", a.prog.def.Name)
		}
		a.m = newMachine(a.prog, sess)
	}
	if a.needInit {
		a.needInit = false
		if err := runCompiled(a.prog.init, a.m); err != nil {
			return err
		}
	}
	return nil
}

// runCompiled executes a method body; RETURN acts as an early exit.
func runCompiled(c compiledStmt, m *machine) error {
	err := c(m)
	if _, isReturn := err.(returnSignal); isReturn {
		return nil
	}
	return err
}

// Step implements exec.Aggregator.
func (a *compiledAgg) Step(ctx *exec.Ctx, args []sqltypes.Value) error {
	if err := a.ensure(ctx); err != nil {
		return err
	}
	if len(args) != len(a.prog.paramSlots) {
		return fmt.Errorf("interp: aggregate %s expects %d arguments, got %d", a.prog.def.Name, len(a.prog.paramSlots), len(args))
	}
	for i, slot := range a.prog.paramSlots {
		if err := a.m.assign(slot, args[i]); err != nil {
			return err
		}
	}
	return runCompiled(a.prog.accum, a.m)
}

// Result implements exec.Aggregator.
func (a *compiledAgg) Result(ctx *exec.Ctx) (sqltypes.Value, error) {
	if err := a.ensure(ctx); err != nil {
		return sqltypes.Null, err
	}
	err := a.prog.term(a.m)
	if err == nil {
		return sqltypes.Null, nil
	}
	ret, ok := err.(returnSignal)
	if !ok {
		return sqltypes.Null, err
	}
	v, cerr := ret.val.CoerceTo(a.prog.def.Returns)
	if cerr != nil {
		return sqltypes.Null, fmt.Errorf("interp: terminate of %s: %w", a.prog.def.Name, cerr)
	}
	return v, nil
}

// Merge implements exec.Aggregator: it copies the other instance's field
// slots into this instance's @other_<field> slots and runs the compiled
// MERGE body. An uninitialized other is a no-op; an uninitialized self
// adopts the other's machine wholesale (partition saw no rows).
func (a *compiledAgg) Merge(other exec.Aggregator) error {
	if a.prog.merge == nil {
		return fmt.Errorf("interp: aggregate %s does not support Merge", a.prog.def.Name)
	}
	o, ok := other.(*compiledAgg)
	if !ok || o.prog != a.prog {
		return fmt.Errorf("interp: merge of mismatched aggregate %s", a.prog.def.Name)
	}
	if o.m == nil || o.needInit {
		return nil
	}
	if a.m == nil || a.needInit {
		a.m, a.needInit = o.m, false
		return nil
	}
	for _, p := range a.prog.mergeCopies {
		a.m.slots[p.to] = o.m.slots[p.from]
	}
	return runCompiled(a.prog.merge, a.m)
}
