package ast

// CloneExpr returns a deep copy of e. The Aggify transformer clones loop
// bodies into aggregate definitions so that later rewrites of one copy do
// not corrupt the other.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal:
		c := *x
		return &c
	case *ColRef:
		c := *x
		return &c
	case *VarRef:
		c := *x
		return &c
	case *ParamRef:
		c := *x
		return &c
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, E: CloneExpr(x.E)}
	case *IsNullExpr:
		return &IsNullExpr{E: CloneExpr(x.E), Negate: x.Negate}
	case *CaseExpr:
		c := &CaseExpr{Else: CloneExpr(x.Else)}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, WhenClause{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)})
		}
		return c
	case *FuncCall:
		c := &FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *Subquery:
		return &Subquery{Query: CloneSelect(x.Query), Exists: x.Exists}
	case *InExpr:
		c := &InExpr{E: CloneExpr(x.E), Negate: x.Negate, Query: CloneSelect(x.Query)}
		for _, v := range x.List {
			c.List = append(c.List, CloneExpr(v))
		}
		return c
	case *BetweenExpr:
		return &BetweenExpr{E: CloneExpr(x.E), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Negate: x.Negate}
	}
	panic("ast: CloneExpr of unknown node")
}

// CloneSelect returns a deep copy of q.
func CloneSelect(q *Select) *Select {
	if q == nil {
		return nil
	}
	c := &Select{
		Distinct:      q.Distinct,
		Top:           CloneExpr(q.Top),
		Where:         CloneExpr(q.Where),
		Having:        CloneExpr(q.Having),
		Union:         CloneSelect(q.Union),
		OrderEnforced: q.OrderEnforced,
	}
	for _, cte := range q.With {
		c.With = append(c.With, CTE{Name: cte.Name, Cols: append([]string(nil), cte.Cols...), Query: CloneSelect(cte.Query)})
	}
	for _, it := range q.Items {
		c.Items = append(c.Items, SelectItem{Expr: CloneExpr(it.Expr), Alias: it.Alias, Star: it.Star})
	}
	for _, te := range q.From {
		c.From = append(c.From, CloneTableExpr(te))
	}
	for _, g := range q.GroupBy {
		c.GroupBy = append(c.GroupBy, CloneExpr(g))
	}
	for _, o := range q.OrderBy {
		c.OrderBy = append(c.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	return c
}

// CloneTableExpr returns a deep copy of te.
func CloneTableExpr(te TableExpr) TableExpr {
	switch t := te.(type) {
	case *TableRef:
		c := *t
		return &c
	case *SubqueryRef:
		return &SubqueryRef{Query: CloneSelect(t.Query), Alias: t.Alias}
	case *Join:
		return &Join{Kind: t.Kind, L: CloneTableExpr(t.L), R: CloneTableExpr(t.R), On: CloneExpr(t.On)}
	}
	panic("ast: CloneTableExpr of unknown node")
}

// CloneStmt returns a deep copy of s.
func CloneStmt(s Stmt) Stmt {
	if s == nil {
		return nil
	}
	switch st := s.(type) {
	case *Block:
		c := &Block{}
		for _, inner := range st.Stmts {
			c.Stmts = append(c.Stmts, CloneStmt(inner))
		}
		return c
	case *DeclareVar:
		return &DeclareVar{Name: st.Name, Type: st.Type, Init: CloneExpr(st.Init)}
	case *DeclareTable:
		return &DeclareTable{Name: st.Name, Cols: append([]ColumnDef(nil), st.Cols...)}
	case *SetStmt:
		return &SetStmt{Targets: append([]string(nil), st.Targets...), Value: CloneExpr(st.Value)}
	case *IfStmt:
		return &IfStmt{Cond: CloneExpr(st.Cond), Then: CloneStmt(st.Then), Else: CloneStmt(st.Else)}
	case *WhileStmt:
		return &WhileStmt{Cond: CloneExpr(st.Cond), Body: CloneStmt(st.Body)}
	case *ForStmt:
		return &ForStmt{
			InitVar: st.InitVar, InitExpr: CloneExpr(st.InitExpr),
			Cond:    CloneExpr(st.Cond),
			PostVar: st.PostVar, PostExpr: CloneExpr(st.PostExpr),
			Body: CloneStmt(st.Body),
		}
	case *BreakStmt:
		return &BreakStmt{}
	case *TxnStmt:
		return &TxnStmt{Op: st.Op}
	case *ContinueStmt:
		return &ContinueStmt{}
	case *ReturnStmt:
		return &ReturnStmt{Value: CloneExpr(st.Value)}
	case *DeclareCursor:
		return &DeclareCursor{Name: st.Name, Query: CloneSelect(st.Query)}
	case *OpenCursor:
		return &OpenCursor{Name: st.Name}
	case *CloseCursor:
		return &CloseCursor{Name: st.Name}
	case *DeallocateCursor:
		return &DeallocateCursor{Name: st.Name}
	case *FetchStmt:
		return &FetchStmt{Cursor: st.Cursor, Into: append([]string(nil), st.Into...)}
	case *QueryStmt:
		return &QueryStmt{Query: CloneSelect(st.Query)}
	case *ExplainStmt:
		return &ExplainStmt{Analyze: st.Analyze, Query: CloneSelect(st.Query)}
	case *InsertStmt:
		c := &InsertStmt{Table: st.Table, Columns: append([]string(nil), st.Columns...), Query: CloneSelect(st.Query)}
		for _, row := range st.Rows {
			cr := make([]Expr, len(row))
			for i, e := range row {
				cr[i] = CloneExpr(e)
			}
			c.Rows = append(c.Rows, cr)
		}
		return c
	case *UpdateStmt:
		c := &UpdateStmt{Table: st.Table, Where: CloneExpr(st.Where)}
		for _, sc := range st.Sets {
			c.Sets = append(c.Sets, SetClause{Column: sc.Column, Value: CloneExpr(sc.Value)})
		}
		return c
	case *DeleteStmt:
		return &DeleteStmt{Table: st.Table, Where: CloneExpr(st.Where)}
	case *TryCatch:
		return &TryCatch{Try: CloneStmt(st.Try), Catch: CloneStmt(st.Catch)}
	case *PrintStmt:
		return &PrintStmt{E: CloneExpr(st.E)}
	case *ExecStmt:
		c := &ExecStmt{Proc: st.Proc}
		for _, a := range st.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *ExplainProcStmt:
		return &ExplainProcStmt{Proc: st.Proc}
	case *TraceProcStmt:
		c := &TraceProcStmt{Proc: st.Proc}
		for _, a := range st.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	case *CreateTable:
		return &CreateTable{Name: st.Name, Cols: append([]ColumnDef(nil), st.Cols...)}
	case *CreateIndex:
		c := *st
		return &c
	case *CreateFunction:
		return &CreateFunction{Name: st.Name, Params: cloneParams(st.Params), Returns: st.Returns, Body: CloneStmt(st.Body).(*Block)}
	case *CreateProcedure:
		return &CreateProcedure{Name: st.Name, Params: cloneParams(st.Params), Body: CloneStmt(st.Body).(*Block)}
	case *CreateAggregate:
		out := &CreateAggregate{
			Name: st.Name, Params: cloneParams(st.Params), Returns: st.Returns,
			Fields:    append([]ColumnDef(nil), st.Fields...),
			Init:      CloneStmt(st.Init).(*Block),
			Accum:     CloneStmt(st.Accum).(*Block),
			Terminate: CloneStmt(st.Terminate).(*Block),
		}
		if st.Merge != nil {
			out.Merge = CloneStmt(st.Merge).(*Block)
		}
		return out
	}
	panic("ast: CloneStmt of unknown node")
}

func cloneParams(params []Param) []Param {
	out := make([]Param, len(params))
	for i, p := range params {
		out[i] = Param{Name: p.Name, Type: p.Type, Default: CloneExpr(p.Default)}
	}
	return out
}
