package ast

import (
	"fmt"
	"strings"
)

// Expression printing (SQL syntax, suitable for re-parsing).

func (e *Literal) String() string { return e.Val.String() }

func (e *ColRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

func (e *VarRef) String() string   { return e.Name }
func (e *ParamRef) String() string { return "?" }

func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e *UnaryExpr) String() string {
	if e.Op == '-' {
		return fmt.Sprintf("(-%s)", e.E)
	}
	return fmt.Sprintf("(NOT %s)", e.E)
}

func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.E)
	}
	return fmt.Sprintf("(%s IS NULL)", e.E)
}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (e *Subquery) String() string {
	if e.Exists {
		return "EXISTS (" + e.Query.String() + ")"
	}
	return "(" + e.Query.String() + ")"
}

func (e *InExpr) String() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	if e.Query != nil {
		return fmt.Sprintf("(%s%s IN (%s))", e.E, not, e.Query)
	}
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	return fmt.Sprintf("(%s%s IN (%s))", e.E, not, strings.Join(items, ", "))
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return fmt.Sprintf("(%s%s BETWEEN %s AND %s)", e.E, not, e.Lo, e.Hi)
}

// Table expression printing.

func (t *TableRef) String() string {
	if t.Alias != "" && t.Alias != t.Name {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

func (t *SubqueryRef) String() string {
	return "(" + t.Query.String() + ") " + t.Alias
}

func (t *Join) String() string {
	return fmt.Sprintf("%s %s %s ON %s", t.L, t.Kind, t.R, t.On)
}

// Query printing.

func (q *Select) String() string {
	var b strings.Builder
	if len(q.With) > 0 {
		b.WriteString("WITH ")
		for i, cte := range q.With {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(cte.Name)
			if len(cte.Cols) > 0 {
				b.WriteString("(" + strings.Join(cte.Cols, ", ") + ")")
			}
			b.WriteString(" AS (" + cte.Query.String() + ")")
		}
		b.WriteByte(' ')
	}
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	if q.Top != nil {
		fmt.Fprintf(&b, "TOP %s ", q.Top)
	}
	for i, it := range q.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Alias != "":
			b.WriteString(it.Alias + ".*")
		case it.Star:
			b.WriteByte('*')
		default:
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	if len(q.From) > 0 {
		b.WriteString(" FROM ")
		for i, te := range q.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(te.String())
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if q.Having != nil {
		b.WriteString(" HAVING " + q.Having.String())
	}
	if q.Union != nil {
		b.WriteString(" UNION ALL " + q.Union.String())
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.OrderEnforced {
		b.WriteString(" OPTION (ORDER ENFORCED)")
	}
	return b.String()
}

// Statement printing with indentation.

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) line(format string, args ...any) {
	p.b.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

// Format renders a statement tree as indented dialect source.
func Format(s Stmt) string {
	var p printer
	p.stmt(s)
	return p.b.String()
}

// FormatProgram renders a sequence of top-level statements, separating
// batches with GO lines (so CREATE statements re-parse cleanly).
func FormatProgram(stmts []Stmt) string {
	var parts []string
	for _, s := range stmts {
		parts = append(parts, Format(s))
	}
	return strings.Join(parts, "GO\n")
}

func (p *printer) stmt(s Stmt) {
	switch st := s.(type) {
	case *Block:
		p.line("BEGIN")
		p.indent++
		for _, inner := range st.Stmts {
			p.stmt(inner)
		}
		p.indent--
		p.line("END")
	case *DeclareVar:
		if st.Init != nil {
			p.line("DECLARE %s %s = %s;", st.Name, st.Type, st.Init)
		} else {
			p.line("DECLARE %s %s;", st.Name, st.Type)
		}
	case *DeclareTable:
		cols := make([]string, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = c.Name + " " + c.Type.String()
		}
		p.line("DECLARE %s TABLE (%s);", st.Name, strings.Join(cols, ", "))
	case *SetStmt:
		if len(st.Targets) == 1 {
			p.line("SET %s = %s;", st.Targets[0], st.Value)
		} else {
			p.line("SET (%s) = %s;", strings.Join(st.Targets, ", "), st.Value)
		}
	case *IfStmt:
		p.line("IF %s", st.Cond)
		p.indentedStmt(st.Then)
		if st.Else != nil {
			p.line("ELSE")
			p.indentedStmt(st.Else)
		}
	case *WhileStmt:
		p.line("WHILE %s", st.Cond)
		p.indentedStmt(st.Body)
	case *ForStmt:
		p.line("FOR (%s = %s; %s; %s = %s)", st.InitVar, st.InitExpr, st.Cond, st.PostVar, st.PostExpr)
		p.indentedStmt(st.Body)
	case *BreakStmt:
		p.line("BREAK;")
	case *TxnStmt:
		p.line("%s;", st.Op)
	case *ContinueStmt:
		p.line("CONTINUE;")
	case *ReturnStmt:
		if st.Value != nil {
			p.line("RETURN %s;", st.Value)
		} else {
			p.line("RETURN;")
		}
	case *DeclareCursor:
		p.line("DECLARE %s CURSOR FOR", st.Name)
		p.indent++
		p.line("%s;", st.Query)
		p.indent--
	case *OpenCursor:
		p.line("OPEN %s;", st.Name)
	case *CloseCursor:
		p.line("CLOSE %s;", st.Name)
	case *DeallocateCursor:
		p.line("DEALLOCATE %s;", st.Name)
	case *FetchStmt:
		p.line("FETCH NEXT FROM %s INTO %s;", st.Cursor, strings.Join(st.Into, ", "))
	case *QueryStmt:
		p.line("%s;", st.Query)
	case *ExplainStmt:
		kw := "EXPLAIN"
		if st.Analyze {
			kw = "EXPLAIN ANALYZE"
		}
		p.line("%s %s;", kw, st.Query)
	case *InsertStmt:
		cols := ""
		if len(st.Columns) > 0 {
			cols = " (" + strings.Join(st.Columns, ", ") + ")"
		}
		if st.Query != nil {
			p.line("INSERT INTO %s%s %s;", st.Table, cols, st.Query)
		} else {
			rows := make([]string, len(st.Rows))
			for i, r := range st.Rows {
				vals := make([]string, len(r))
				for j, v := range r {
					vals[j] = v.String()
				}
				rows[i] = "(" + strings.Join(vals, ", ") + ")"
			}
			p.line("INSERT INTO %s%s VALUES %s;", st.Table, cols, strings.Join(rows, ", "))
		}
	case *UpdateStmt:
		sets := make([]string, len(st.Sets))
		for i, sc := range st.Sets {
			sets[i] = sc.Column + " = " + sc.Value.String()
		}
		if st.Where != nil {
			p.line("UPDATE %s SET %s WHERE %s;", st.Table, strings.Join(sets, ", "), st.Where)
		} else {
			p.line("UPDATE %s SET %s;", st.Table, strings.Join(sets, ", "))
		}
	case *DeleteStmt:
		if st.Where != nil {
			p.line("DELETE FROM %s WHERE %s;", st.Table, st.Where)
		} else {
			p.line("DELETE FROM %s;", st.Table)
		}
	case *TryCatch:
		p.line("BEGIN TRY")
		p.indentedStmt(st.Try)
		p.line("END TRY")
		p.line("BEGIN CATCH")
		p.indentedStmt(st.Catch)
		p.line("END CATCH")
	case *PrintStmt:
		p.line("PRINT %s;", st.E)
	case *ExecStmt:
		args := make([]string, len(st.Args))
		for i, a := range st.Args {
			args[i] = a.String()
		}
		p.line("EXEC %s %s;", st.Proc, strings.Join(args, ", "))
	case *ExplainProcStmt:
		p.line("EXPLAIN PROCEDURE %s;", st.Proc)
	case *TraceProcStmt:
		args := make([]string, len(st.Args))
		for i, a := range st.Args {
			args[i] = a.String()
		}
		p.line("TRACE PROCEDURE %s %s;", st.Proc, strings.Join(args, ", "))
	case *CreateTable:
		cols := make([]string, len(st.Cols))
		for i, c := range st.Cols {
			cols[i] = c.Name + " " + c.Type.String()
		}
		p.line("CREATE TABLE %s (%s);", st.Name, strings.Join(cols, ", "))
	case *CreateIndex:
		p.line("CREATE INDEX %s ON %s(%s);", st.Name, st.Table, st.Column)
	case *CreateFunction:
		p.line("CREATE FUNCTION %s(%s) RETURNS %s AS", st.Name, formatParams(st.Params), st.Returns)
		p.stmt(st.Body)
	case *CreateProcedure:
		p.line("CREATE PROCEDURE %s(%s) AS", st.Name, formatParams(st.Params))
		p.stmt(st.Body)
	case *CreateAggregate:
		p.line("CREATE AGGREGATE %s(%s) RETURNS %s AS", st.Name, formatParams(st.Params), st.Returns)
		p.line("BEGIN")
		p.indent++
		fields := make([]string, len(st.Fields))
		for i, f := range st.Fields {
			fields[i] = f.Name + " " + f.Type.String()
		}
		p.line("FIELDS (%s);", strings.Join(fields, ", "))
		p.line("INIT")
		p.stmt(st.Init)
		p.line("ACCUMULATE")
		p.stmt(st.Accum)
		p.line("TERMINATE")
		p.stmt(st.Terminate)
		if st.Merge != nil {
			p.line("MERGE")
			p.stmt(st.Merge)
		}
		p.indent--
		p.line("END")
	default:
		p.line("/* unknown statement %T */", s)
	}
}

// indentedStmt prints a sub-statement one level in; blocks manage their own
// BEGIN/END bracketing at the current level for readability.
func (p *printer) indentedStmt(s Stmt) {
	if _, isBlock := s.(*Block); isBlock {
		p.stmt(s)
		return
	}
	p.indent++
	p.stmt(s)
	p.indent--
}

func formatParams(params []Param) string {
	parts := make([]string, len(params))
	for i, pr := range params {
		parts[i] = pr.Name + " " + pr.Type.String()
		if pr.Default != nil {
			parts[i] += " = " + pr.Default.String()
		}
	}
	return strings.Join(parts, ", ")
}
