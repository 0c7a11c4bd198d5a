package ast

import (
	"strings"

	"aggify/internal/sqltypes"
)

// Stmt is the interface implemented by all statement nodes. All statement
// nodes are pointer types, so they can key identity maps in the analysis
// packages.
type Stmt interface {
	stmtNode()
}

// Block is a BEGIN...END sequence.
type Block struct {
	Stmts []Stmt
}

// DeclareVar declares a scalar variable with optional initializer:
// DECLARE @x INT = 3.
type DeclareVar struct {
	Name string // with '@' sigil, lower-cased
	Type sqltypes.Type
	Init Expr // may be nil (NULL)
}

// DeclareTable declares a table variable: DECLARE @t TABLE (a INT, ...).
type DeclareTable struct {
	Name string // with '@' sigil
	Cols []ColumnDef
}

// SetStmt assigns to one or more variables: SET @x = e, or the tuple
// destructuring form SET (@a, @b) = (SELECT Agg(...) ...) produced by the
// Aggify rewrite for loops with multiple live variables.
type SetStmt struct {
	Targets []string // with '@' sigils
	Value   Expr
}

// IfStmt is IF cond stmt [ELSE stmt].
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is WHILE cond stmt.
type WhileStmt struct {
	Cond Expr
	Body Stmt
}

// ForStmt is the §8.1 counted loop: FOR (@i = 0; @i <= 100; @i = @i + 1) stmt.
// Aggify lifts it into a recursive-CTE cursor loop before transforming.
type ForStmt struct {
	InitVar  string // loop variable with sigil
	InitExpr Expr
	Cond     Expr
	PostVar  string
	PostExpr Expr
	Body     Stmt
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{}

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct{}

// ReturnStmt returns from a function or procedure.
type ReturnStmt struct {
	Value Expr // may be nil
}

// DeclareCursor declares a static explicit cursor over a query.
type DeclareCursor struct {
	Name  string
	Query *Select
}

// OpenCursor executes the cursor query and materializes its results.
type OpenCursor struct {
	Name string
}

// CloseCursor closes an open cursor.
type CloseCursor struct {
	Name string
}

// DeallocateCursor releases a cursor and its worktable.
type DeallocateCursor struct {
	Name string
}

// FetchStmt is FETCH NEXT FROM cursor INTO @a, @b, ...
type FetchStmt struct {
	Cursor string
	Into   []string // variables with sigils
}

// QueryStmt is a standalone SELECT producing a result set.
type QueryStmt struct {
	Query *Select
}

// ExplainStmt is EXPLAIN [ANALYZE] <select>: it compiles the query and
// returns its physical plan; with ANALYZE it also executes the query and
// annotates each operator with runtime statistics.
type ExplainStmt struct {
	Analyze bool
	Query   *Select
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...),... or INSERT ... SELECT.
type InsertStmt struct {
	Table   string // includes '@' for table variables
	Columns []string
	Rows    [][]Expr // VALUES form
	Query   *Select  // SELECT form (exclusive with Rows)
}

// SetClause is one `col = expr` in an UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE t SET ... WHERE ...
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// DeleteStmt is DELETE FROM t WHERE ...
type DeleteStmt struct {
	Table string
	Where Expr
}

// TryCatch is BEGIN TRY ... END TRY BEGIN CATCH ... END CATCH.
type TryCatch struct {
	Try   Stmt
	Catch Stmt
}

// TxnOp is a transaction-control verb.
type TxnOp int

const (
	TxnBegin TxnOp = iota
	TxnCommit
	TxnRollback
)

func (op TxnOp) String() string {
	switch op {
	case TxnBegin:
		return "BEGIN TRANSACTION"
	case TxnCommit:
		return "COMMIT"
	case TxnRollback:
		return "ROLLBACK"
	}
	return "TXN?"
}

// TxnStmt is BEGIN TRANSACTION, COMMIT, or ROLLBACK: explicit transaction
// control over the session's MVCC state.
type TxnStmt struct {
	Op TxnOp
}

// PrintStmt emits a message (engine collects them per session).
type PrintStmt struct {
	E Expr
}

// ExecStmt invokes a stored procedure: EXEC p arg1, arg2.
type ExecStmt struct {
	Proc string
	Args []Expr
}

// TraceProcStmt profiles one procedure invocation: TRACE PROCEDURE p [args].
// The interpreter runs the procedure with per-statement profiling enabled
// and returns a result set attributing wall time and logical reads to each
// procedural statement, aggregated per cursor loop, with loops the Aggify
// analysis deems rewritable tagged aggify_candidate=true.
type TraceProcStmt struct {
	Proc string
	Args []Expr
}

// ExplainProcStmt is EXPLAIN PROCEDURE p: it compiles the procedure
// (without running it) and returns one row per body statement with the
// execution tier chosen for it — compiled or interpreted — and why.
type ExplainProcStmt struct {
	Proc string
}

// ColumnDef is a column in DDL.
type ColumnDef struct {
	Name string
	Type sqltypes.Type
}

// Param is a function/procedure/aggregate parameter, optionally defaulted.
type Param struct {
	Name    string // with '@' sigil
	Type    sqltypes.Type
	Default Expr // may be nil
}

// CreateTable is CREATE TABLE t (cols).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

// CreateIndex is CREATE INDEX name ON table(column). Every index is
// ordered; a trailing USING HASH|ORDERED parses and is dropped.
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

// CreateFunction is CREATE FUNCTION f(params) RETURNS type AS BEGIN ... END.
type CreateFunction struct {
	Name    string
	Params  []Param
	Returns sqltypes.Type
	Body    *Block
}

// CreateProcedure is CREATE PROCEDURE p(params) AS BEGIN ... END.
type CreateProcedure struct {
	Name   string
	Params []Param
	Body   *Block
}

// CreateAggregate defines a custom aggregate following the paper's Figure 4
// template: fields, Init, Accumulate (with parameters), Terminate.
type CreateAggregate struct {
	Name      string
	Params    []Param // Accumulate() parameters
	Returns   sqltypes.Type
	Fields    []ColumnDef // aggregate state, variables with sigils
	Init      *Block
	Accum     *Block
	Terminate *Block
	// Merge, when present, folds another instance's state into this one
	// (the contract's Merge step). The other instance's fields are visible
	// as @other_<field> variables. Aggify derives it for additive
	// accumulate bodies; it may also be written by hand as a MERGE section.
	Merge *Block
}

func (*Block) stmtNode()            {}
func (*DeclareVar) stmtNode()       {}
func (*DeclareTable) stmtNode()     {}
func (*SetStmt) stmtNode()          {}
func (*IfStmt) stmtNode()           {}
func (*WhileStmt) stmtNode()        {}
func (*ForStmt) stmtNode()          {}
func (*BreakStmt) stmtNode()        {}
func (*ContinueStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode()       {}
func (*DeclareCursor) stmtNode()    {}
func (*OpenCursor) stmtNode()       {}
func (*CloseCursor) stmtNode()      {}
func (*DeallocateCursor) stmtNode() {}
func (*FetchStmt) stmtNode()        {}
func (*QueryStmt) stmtNode()        {}
func (*ExplainStmt) stmtNode()      {}
func (*InsertStmt) stmtNode()       {}
func (*UpdateStmt) stmtNode()       {}
func (*DeleteStmt) stmtNode()       {}
func (*TryCatch) stmtNode()         {}
func (*TxnStmt) stmtNode()          {}
func (*PrintStmt) stmtNode()        {}
func (*ExecStmt) stmtNode()         {}
func (*TraceProcStmt) stmtNode()    {}
func (*ExplainProcStmt) stmtNode()  {}
func (*CreateTable) stmtNode()      {}
func (*CreateIndex) stmtNode()      {}
func (*CreateFunction) stmtNode()   {}
func (*CreateProcedure) stmtNode()  {}
func (*CreateAggregate) stmtNode()  {}

// FetchStatusVar is the name of the cursor status register set by FETCH:
// 0 after a successful fetch, -1 at end of cursor.
const FetchStatusVar = "@@fetch_status"

// OtherFieldVar returns the variable name under which a MERGE body sees the
// other instance's copy of a field (e.g. "@total" → "@other_total").
func OtherFieldVar(field string) string {
	return "@other_" + strings.TrimPrefix(field, "@")
}
