package parser

import (
	"strconv"

	"aggify/internal/ast"
	"aggify/internal/sqltypes"
)

// Parse parses a whole program (a sequence of statements, optionally
// separated by semicolons and GO batch separators).
func Parse(src string) ([]ast.Stmt, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	return p.ParseProgram()
}

// MustParse parses a program and panics on error; for tests and embedded
// workload definitions whose sources are fixed.
func MustParse(src string) []ast.Stmt {
	stmts, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return stmts
}

// Span is the byte range [Start, End) a statement occupies in the source
// text handed to ParseSpans. The range starts at the statement's first
// token and ends just before the next statement's first token (or at end
// of input), so it may include a trailing semicolon, whitespace, or
// comments — all of which the fingerprint normalizer ignores.
type Span struct {
	Start, End int
}

// ParseSpans parses a whole program like Parse, additionally reporting the
// source span of each statement so callers can slice out per-statement raw
// text (for fingerprinting, slow-query capture, activity views) without
// re-lexing. len(spans) == len(stmts).
func ParseSpans(src string) ([]ast.Stmt, []Span, error) {
	p, err := New(src)
	if err != nil {
		return nil, nil, err
	}
	var stmts []ast.Stmt
	var spans []Span
	for {
		p.skipSeparators()
		if p.cur().kind == tokEOF {
			return stmts, spans, nil
		}
		start := p.cur().pos
		s, err := p.ParseStmt()
		if err != nil {
			return nil, nil, err
		}
		stmts = append(stmts, s)
		spans = append(spans, Span{Start: start, End: p.cur().pos})
	}
}

// ParseProgram parses statements until EOF.
func (p *Parser) ParseProgram() ([]ast.Stmt, error) {
	var out []ast.Stmt
	for {
		p.skipSeparators()
		if p.cur().kind == tokEOF {
			return out, nil
		}
		s, err := p.ParseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *Parser) skipSeparators() {
	for p.isPunct(";") || p.isKw("go") {
		p.advance()
	}
}

// ParseStmt parses a single statement.
func (p *Parser) ParseStmt() (ast.Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, p.errf("expected statement, found %q", t.text)
	}
	switch t.text {
	case "begin":
		if p.peek().text == "try" {
			return p.parseTryCatch()
		}
		if kw := p.peek().text; kw == "transaction" || kw == "tran" {
			p.advance()
			p.advance()
			p.endStmt()
			return &ast.TxnStmt{Op: ast.TxnBegin}, nil
		}
		return p.parseBlock()
	case "commit":
		p.advance()
		if kw := p.cur().text; kw == "transaction" || kw == "tran" || kw == "work" {
			p.advance()
		}
		p.endStmt()
		return &ast.TxnStmt{Op: ast.TxnCommit}, nil
	case "rollback":
		p.advance()
		if kw := p.cur().text; kw == "transaction" || kw == "tran" || kw == "work" {
			p.advance()
		}
		p.endStmt()
		return &ast.TxnStmt{Op: ast.TxnRollback}, nil
	case "declare":
		return p.parseDeclare()
	case "set":
		return p.parseSet()
	case "if":
		return p.parseIf()
	case "while":
		return p.parseWhile()
	case "for":
		return p.parseFor()
	case "break":
		p.advance()
		p.endStmt()
		return &ast.BreakStmt{}, nil
	case "continue":
		p.advance()
		p.endStmt()
		return &ast.ContinueStmt{}, nil
	case "return":
		p.advance()
		if p.isPunct(";") || p.cur().kind == tokEOF || p.isKw("end") {
			p.endStmt()
			return &ast.ReturnStmt{}, nil
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.ReturnStmt{Value: e}, nil
	case "open":
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.OpenCursor{Name: name}, nil
	case "close":
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.CloseCursor{Name: name}, nil
	case "deallocate":
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.DeallocateCursor{Name: name}, nil
	case "fetch":
		return p.parseFetch()
	case "select", "with":
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.QueryStmt{Query: q}, nil
	case "explain":
		p.advance()
		if p.acceptKw("procedure") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			p.endStmt()
			return &ast.ExplainProcStmt{Proc: name}, nil
		}
		analyze := p.acceptKw("analyze")
		if !p.isKw("select") && !p.isKw("with") {
			return nil, p.errf("expected SELECT or WITH after EXPLAIN, found %q", p.cur().text)
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.ExplainStmt{Analyze: analyze, Query: q}, nil
	case "insert":
		return p.parseInsert()
	case "update":
		return p.parseUpdate()
	case "delete":
		return p.parseDelete()
	case "print":
		p.advance()
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.PrintStmt{E: e}, nil
	case "exec":
		return p.parseExec()
	case "trace":
		return p.parseTraceProc()
	case "create":
		return p.parseCreate()
	case "try", "catch":
		return nil, p.errf("unexpected %q", t.text)
	}
	return nil, p.errf("unknown statement %q", t.text)
}

// endStmt consumes an optional trailing semicolon.
func (p *Parser) endStmt() { p.acceptPunct(";") }

func (p *Parser) parseBlock() (ast.Stmt, error) {
	if err := p.expectKw("begin"); err != nil {
		return nil, err
	}
	b := &ast.Block{}
	for {
		p.skipSeparators()
		if p.acceptKw("end") {
			p.endStmt()
			return b, nil
		}
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated BEGIN block")
		}
		s, err := p.ParseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
}

func (p *Parser) parseTryCatch() (ast.Stmt, error) {
	p.advance() // BEGIN
	p.advance() // TRY
	tryBlock := &ast.Block{}
	for {
		p.skipSeparators()
		if p.isKw("end") && p.peek().text == "try" {
			p.advance()
			p.advance()
			break
		}
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated BEGIN TRY")
		}
		s, err := p.ParseStmt()
		if err != nil {
			return nil, err
		}
		tryBlock.Stmts = append(tryBlock.Stmts, s)
	}
	if err := p.expectKw("begin"); err != nil {
		return nil, err
	}
	if err := p.expectKw("catch"); err != nil {
		return nil, err
	}
	catchBlock := &ast.Block{}
	for {
		p.skipSeparators()
		if p.isKw("end") && p.peek().text == "catch" {
			p.advance()
			p.advance()
			p.endStmt()
			break
		}
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated BEGIN CATCH")
		}
		s, err := p.ParseStmt()
		if err != nil {
			return nil, err
		}
		catchBlock.Stmts = append(catchBlock.Stmts, s)
	}
	return &ast.TryCatch{Try: tryBlock, Catch: catchBlock}, nil
}

// parseDeclare handles scalar variables, table variables, and cursors.
func (p *Parser) parseDeclare() (ast.Stmt, error) {
	p.advance() // DECLARE
	if p.cur().kind == tokIdent {
		// DECLARE name CURSOR FOR query
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("cursor"); err != nil {
			return nil, err
		}
		if err := p.expectKw("for"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.DeclareCursor{Name: name, Query: q}, nil
	}
	if p.cur().kind != tokVar {
		return nil, p.errf("expected variable or cursor name after DECLARE")
	}
	name := p.advance().text
	if p.isKw("table") {
		p.advance()
		cols, err := p.parseColumnDefs()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.DeclareTable{Name: name, Cols: cols}, nil
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	dv := &ast.DeclareVar{Name: name, Type: typ}
	if p.acceptPunct("=") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		dv.Init = e
	}
	// Multiple declarations: DECLARE @a INT, @b INT = 2 become a block.
	if p.isPunct(",") {
		block := &ast.Block{Stmts: []ast.Stmt{dv}}
		for p.acceptPunct(",") {
			if p.cur().kind != tokVar {
				return nil, p.errf("expected variable in DECLARE list")
			}
			n := p.advance().text
			t, err := p.parseType()
			if err != nil {
				return nil, err
			}
			d := &ast.DeclareVar{Name: n, Type: t}
			if p.acceptPunct("=") {
				e, err := p.ParseExpr()
				if err != nil {
					return nil, err
				}
				d.Init = e
			}
			block.Stmts = append(block.Stmts, d)
		}
		p.endStmt()
		return block, nil
	}
	p.endStmt()
	return dv, nil
}

func (p *Parser) parseType() (sqltypes.Type, error) {
	name, err := p.typeName()
	if err != nil {
		return sqltypes.Unknown, err
	}
	var args []int
	if p.isPunct("(") {
		p.advance()
		for {
			t := p.cur()
			if t.kind != tokNumber {
				return sqltypes.Unknown, p.errf("expected number in type arguments")
			}
			n, err := strconv.Atoi(t.text)
			if err != nil {
				return sqltypes.Unknown, p.errf("bad type argument %q", t.text)
			}
			p.advance()
			args = append(args, n)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return sqltypes.Unknown, err
		}
	}
	typ, err := sqltypes.ParseType(name, args...)
	if err != nil {
		return sqltypes.Unknown, p.errf("%v", err)
	}
	return typ, nil
}

// typeName accepts an identifier even if it collides with a keyword (DATE
// is both a keyword and a type name).
func (p *Parser) typeName() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected type name, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *Parser) parseSet() (ast.Stmt, error) {
	p.advance() // SET
	st := &ast.SetStmt{}
	if p.isPunct("(") {
		p.advance()
		for {
			if p.cur().kind != tokVar {
				return nil, p.errf("expected variable in SET target list")
			}
			st.Targets = append(st.Targets, p.advance().text)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	} else {
		if p.cur().kind != tokVar {
			return nil, p.errf("expected variable after SET")
		}
		st.Targets = []string{p.advance().text}
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	st.Value = e
	p.endStmt()
	return st, nil
}

func (p *Parser) parseIf() (ast.Stmt, error) {
	p.advance() // IF
	cond, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.ParseStmt()
	if err != nil {
		return nil, err
	}
	st := &ast.IfStmt{Cond: cond, Then: then}
	p.skipSeparators()
	if p.acceptKw("else") {
		e, err := p.ParseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = e
	}
	return st, nil
}

func (p *Parser) parseWhile() (ast.Stmt, error) {
	p.advance() // WHILE
	cond, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.ParseStmt()
	if err != nil {
		return nil, err
	}
	return &ast.WhileStmt{Cond: cond, Body: body}, nil
}

// parseFor parses the §8.1 counted loop:
// FOR (@i = 0; @i <= 100; @i = @i + 1) stmt
func (p *Parser) parseFor() (ast.Stmt, error) {
	p.advance() // FOR
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &ast.ForStmt{}
	if p.cur().kind != tokVar {
		return nil, p.errf("expected loop variable in FOR")
	}
	st.InitVar = p.advance().text
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	var err error
	if st.InitExpr, err = p.ParseExpr(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if st.Cond, err = p.ParseExpr(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if p.cur().kind != tokVar {
		return nil, p.errf("expected loop variable in FOR increment")
	}
	st.PostVar = p.advance().text
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	if st.PostExpr, err = p.ParseExpr(); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if st.Body, err = p.ParseStmt(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseFetch() (ast.Stmt, error) {
	p.advance() // FETCH
	if err := p.expectKw("next"); err != nil {
		return nil, err
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	cursor, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	st := &ast.FetchStmt{Cursor: cursor}
	for {
		if p.cur().kind != tokVar {
			return nil, p.errf("expected variable in FETCH INTO list")
		}
		st.Into = append(st.Into, p.advance().text)
		if !p.acceptPunct(",") {
			break
		}
	}
	p.endStmt()
	return st, nil
}

func (p *Parser) parseInsert() (ast.Stmt, error) {
	p.advance() // INSERT
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	st := &ast.InsertStmt{}
	if p.cur().kind == tokVar {
		st.Table = p.advance().text
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Table = name
	}
	if p.isPunct("(") {
		p.advance()
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("values") {
		for {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.ParseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if !p.acceptPunct(",") {
				break
			}
		}
		p.endStmt()
		return st, nil
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	st.Query = q
	p.endStmt()
	return st, nil
}

func (p *Parser) parseUpdate() (ast.Stmt, error) {
	p.advance() // UPDATE
	st := &ast.UpdateStmt{}
	if p.cur().kind == tokVar {
		st.Table = p.advance().text
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Table = name
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, ast.SetClause{Column: col, Value: e})
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKw("where") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	p.endStmt()
	return st, nil
}

func (p *Parser) parseDelete() (ast.Stmt, error) {
	p.advance() // DELETE
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	st := &ast.DeleteStmt{}
	if p.cur().kind == tokVar {
		st.Table = p.advance().text
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Table = name
	}
	if p.acceptKw("where") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	p.endStmt()
	return st, nil
}

func (p *Parser) parseExec() (ast.Stmt, error) {
	p.advance() // EXEC
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ast.ExecStmt{Proc: name}
	if !p.isPunct(";") && p.cur().kind != tokEOF && !p.isKw("end") && !p.isKw("go") {
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, e)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	p.endStmt()
	return st, nil
}

// parseTraceProc parses TRACE PROCEDURE name [arg1, arg2, ...] — a profiled
// procedure invocation (the argument list mirrors EXEC).
func (p *Parser) parseTraceProc() (ast.Stmt, error) {
	p.advance() // TRACE
	if err := p.expectKw("procedure"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ast.TraceProcStmt{Proc: name}
	if !p.isPunct(";") && p.cur().kind != tokEOF && !p.isKw("end") && !p.isKw("go") {
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, e)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	p.endStmt()
	return st, nil
}

func (p *Parser) parseColumnDefs() ([]ast.ColumnDef, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []ast.ColumnDef
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ast.ColumnDef{Name: name, Type: typ})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *Parser) parseParams() ([]ast.Param, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []ast.Param
	if p.acceptPunct(")") {
		return params, nil
	}
	for {
		if p.cur().kind != tokVar {
			return nil, p.errf("expected parameter variable")
		}
		name := p.advance().text
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		param := ast.Param{Name: name, Type: typ}
		if p.acceptPunct("=") {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			param.Default = e
		}
		params = append(params, param)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *Parser) parseCreate() (ast.Stmt, error) {
	p.advance() // CREATE
	switch {
	case p.isKw("table"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols, err := p.parseColumnDefs()
		if err != nil {
			return nil, err
		}
		p.endStmt()
		return &ast.CreateTable{Name: name, Cols: cols}, nil
	case p.isKw("index"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("on"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		column, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if p.isKw("using") {
			// Accepted and ignored: there is one index kind, and existing
			// scripts still name one.
			p.advance()
			if !p.isKw("hash") && !p.isKw("ordered") {
				return nil, p.errf("expected HASH or ORDERED after USING")
			}
			p.advance()
		}
		p.endStmt()
		return &ast.CreateIndex{Name: name, Table: table, Column: column}, nil
	case p.isKw("function"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("returns"); err != nil {
			return nil, err
		}
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ast.CreateFunction{Name: name, Params: params, Returns: ret, Body: body.(*ast.Block)}, nil
	case p.isKw("procedure"):
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		params, err := p.parseParams()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ast.CreateProcedure{Name: name, Params: params, Body: body.(*ast.Block)}, nil
	case p.isKw("aggregate"):
		return p.parseCreateAggregate()
	}
	return nil, p.errf("unsupported CREATE %q", p.cur().text)
}

// parseCreateAggregate parses the Figure 4 template:
//
//	CREATE AGGREGATE name(params) RETURNS type AS BEGIN
//	  FIELDS (@f1 T1, ...);
//	  INIT BEGIN ... END
//	  ACCUMULATE BEGIN ... END
//	  TERMINATE BEGIN ... END
//	END
func (p *Parser) parseCreateAggregate() (ast.Stmt, error) {
	p.advance() // AGGREGATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("returns"); err != nil {
		return nil, err
	}
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	if err := p.expectKw("begin"); err != nil {
		return nil, err
	}
	agg := &ast.CreateAggregate{Name: name, Params: params, Returns: ret}
	if err := p.expectKw("fields"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.cur().kind != tokVar {
			return nil, p.errf("expected field variable in FIELDS")
		}
		fname := p.advance().text
		ftyp, err := p.parseType()
		if err != nil {
			return nil, err
		}
		agg.Fields = append(agg.Fields, ast.ColumnDef{Name: fname, Type: ftyp})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.endStmt()
	if err := p.expectKw("init"); err != nil {
		return nil, err
	}
	initBlock, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("accumulate"); err != nil {
		return nil, err
	}
	accBlock, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("terminate"); err != nil {
		return nil, err
	}
	termBlock, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	// Optional MERGE section: folds another instance's state (visible as
	// @other_<field> variables) into this one.
	var mergeBlock ast.Stmt
	if p.acceptKw("merge") {
		mergeBlock, err = p.parseBlock()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	p.endStmt()
	agg.Init = initBlock.(*ast.Block)
	agg.Accum = accBlock.(*ast.Block)
	agg.Terminate = termBlock.(*ast.Block)
	if mergeBlock != nil {
		agg.Merge = mergeBlock.(*ast.Block)
	}
	return agg, nil
}
