package interp

import (
	"fmt"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// This file extends the slot-based closure compiler from aggregate method
// bodies to full stored-procedure and scalar-UDF bodies. Unlike
// aggregates — where an uncompilable body falls back wholesale to the
// interpreter, preserving the paper's §9 compiled-aggregate/interpreted-
// loop asymmetry — routines compile with statement-level fallthrough:
// every statement that fits the compiled subset becomes a Go closure over
// the slot frame, and anything else (result-set SELECTs, EXEC, DDL, or a
// statement whose scalar expressions reference runtime-only state)
// executes through a per-statement interpreter bridge. The per-statement
// decisions are recorded as StmtTiers for EXPLAIN PROCEDURE and the
// applicability coverage meter.

// routine is one compiled procedure or function body.
type routine struct {
	name   string
	params []ast.Param

	prog       *program
	paramSlots []int
	// defaults holds the compiled default expression per parameter (nil
	// when the parameter has none).
	defaults []evalFn

	body compiledStmt
	// tiers is the per-statement compile/interpret record, in source
	// order.
	tiers []StmtTier
}

// compileRoutine compiles a routine body with the bridge enabled. An
// error means the routine cannot use the compiled pipeline at all (e.g. a
// parameter default fails to compile) and the caller should interpret.
func compileRoutine(eng *engine.Engine, opts plan.Options, name string, params []ast.Param, body *ast.Block) (*routine, error) {
	prog := &program{
		slotIndex:   map[string]int{},
		tableIndex:  map[string]int{},
		cursorIndex: map[string]int{},
	}
	bc := &blockCompiler{eng: eng, opts: opts, prog: prog, bridge: true, pinEvals: true}

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
	rt := &routine{name: name, params: params, prog: prog}
	for _, p := range params {
		rt.paramSlots = append(rt.paramSlots, addSlot(p.Name, p.Type))
	}
	// Permissive pre-scan: every declaration in the body gets a slot, a
	// table prototype, or a cursor index — including declarations inside
	// statements that end up bridged, whose effects must round-trip
	// through the bridge's copy-in/copy-out.
	protoTables := map[string]*storage.Table{}
	ast.WalkStmt(body, func(st ast.Stmt) bool {
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
		}
		return true
	})
	bc.cat = eng.CatalogWithTemp(func(name string) (*storage.Table, bool) {
		t, ok := protoTables[name]
		return t, ok
	})

	for _, p := range params {
		if p.Default == nil {
			rt.defaults = append(rt.defaults, nil)
			continue
		}
		d, err := bc.scalar(p.Default)
		if err != nil {
			return nil, err
		}
		rt.defaults = append(rt.defaults, d)
	}
	c, err := bc.stmt(body)
	if err != nil {
		return nil, err
	}
	rt.body = c
	rt.tiers = bc.tiers
	return rt, nil
}

// call runs the compiled routine on a fresh machine. The returned value
// is the RETURN value (Null when the body fell off the end); function
// callers coerce it to the declared return type.
func (rt *routine) call(s *engine.Session, args []sqltypes.Value) (sqltypes.Value, error) {
	if len(args) > len(rt.params) {
		return sqltypes.Null, fmt.Errorf("interp: calling %s: interp: %d arguments for %d parameters", rt.name, len(args), len(rt.params))
	}
	m := newMachine(rt.prog, s)
	for i := range m.slots {
		m.slots[i] = sqltypes.Null
	}
	// The interpreter's fetch status starts at 0, not NULL.
	m.slots[rt.prog.fetchSlot] = sqltypes.NewInt(0)
	for i, p := range rt.params {
		var v sqltypes.Value
		switch {
		case i < len(args):
			v = args[i]
		case rt.defaults[i] != nil:
			dv, err := rt.defaults[i](m)
			if err != nil {
				return sqltypes.Null, fmt.Errorf("interp: calling %s: %w", rt.name, err)
			}
			v = dv
		default:
			return sqltypes.Null, fmt.Errorf("interp: calling %s: interp: missing argument for parameter %s", rt.name, p.Name)
		}
		if err := m.assign(rt.paramSlots[i], v); err != nil {
			return sqltypes.Null, fmt.Errorf("interp: calling %s: interp: initializing %s: %w", rt.name, p.Name, err)
		}
	}
	// Cursors left open by an early RETURN drop their worktables, exactly
	// like Runner.cleanup.
	defer func() {
		for _, cur := range m.cursors {
			if cur != nil {
				cur.Deallocate()
			}
		}
	}()
	err := rt.body(m)
	if ret, ok := err.(returnSignal); ok {
		return ret.val, nil
	}
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.Null, nil
}

// routineFor returns the cached compiled form of a procedure or scalar-UDF
// definition under the session's planner options, or nil when the body
// cannot use the compiled pipeline (the negative result is cached too, as
// a typed nil, so hot interpreted routines do not recompile per call).
func routineFor(s *engine.Session, def ast.Stmt) *routine {
	return s.Eng.CachedRoutine(def, s.Opts, func() any {
		var rt *routine
		switch d := def.(type) {
		case *ast.CreateProcedure:
			rt, _ = compileRoutine(s.Eng, s.Opts, d.Name, d.Params, d.Body)
		case *ast.CreateFunction:
			rt, _ = compileRoutine(s.Eng, s.Opts, d.Name, d.Params, d.Body)
		}
		return rt
	}).(*routine)
}
