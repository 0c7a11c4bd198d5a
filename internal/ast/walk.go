package ast

// WalkExpr calls fn for e and every sub-expression of e, in pre-order.
// Returning false from fn stops descent into that node's children.
// Subqueries are descended into (their expressions are visited) unless fn
// returns false on the Subquery node.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.E, fn)
	case *IsNullExpr:
		WalkExpr(x.E, fn)
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Subquery:
		WalkSelectExprs(x.Query, fn)
	case *InExpr:
		WalkExpr(x.E, fn)
		for _, v := range x.List {
			WalkExpr(v, fn)
		}
		if x.Query != nil {
			WalkSelectExprs(x.Query, fn)
		}
	case *BetweenExpr:
		WalkExpr(x.E, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	}
}

// MapExpr rebuilds e bottom-up outside its subqueries: each node's children
// are mapped first, then fn maps the rebuilt node. Subqueries (and the query
// of an IN subquery) are kept as they are.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *BinExpr:
		e = &BinExpr{Op: x.Op, L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)}
	case *UnaryExpr:
		e = &UnaryExpr{Op: x.Op, E: MapExpr(x.E, fn)}
	case *IsNullExpr:
		e = &IsNullExpr{E: MapExpr(x.E, fn), Negate: x.Negate}
	case *CaseExpr:
		out := &CaseExpr{Else: MapExpr(x.Else, fn)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, WhenClause{Cond: MapExpr(w.Cond, fn), Then: MapExpr(w.Then, fn)})
		}
		e = out
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, MapExpr(a, fn))
		}
		e = out
	case *BetweenExpr:
		e = &BetweenExpr{E: MapExpr(x.E, fn), Lo: MapExpr(x.Lo, fn), Hi: MapExpr(x.Hi, fn), Negate: x.Negate}
	case *InExpr:
		out := &InExpr{E: MapExpr(x.E, fn), Negate: x.Negate, Query: x.Query}
		for _, it := range x.List {
			out.List = append(out.List, MapExpr(it, fn))
		}
		e = out
	}
	return fn(e)
}

// WalkSelectExprs visits every expression embedded in a query, including
// CTEs, derived tables, join conditions, and UNION ALL branches.
func WalkSelectExprs(q *Select, fn func(Expr) bool) {
	if q == nil {
		return
	}
	for _, cte := range q.With {
		WalkSelectExprs(cte.Query, fn)
	}
	if q.Top != nil {
		WalkExpr(q.Top, fn)
	}
	for _, it := range q.Items {
		WalkExpr(it.Expr, fn)
	}
	for _, te := range q.From {
		walkTableExprExprs(te, fn)
	}
	WalkExpr(q.Where, fn)
	for _, g := range q.GroupBy {
		WalkExpr(g, fn)
	}
	WalkExpr(q.Having, fn)
	for _, o := range q.OrderBy {
		WalkExpr(o.Expr, fn)
	}
	WalkSelectExprs(q.Union, fn)
}

func walkTableExprExprs(te TableExpr, fn func(Expr) bool) {
	switch t := te.(type) {
	case *SubqueryRef:
		WalkSelectExprs(t.Query, fn)
	case *Join:
		walkTableExprExprs(t.L, fn)
		walkTableExprExprs(t.R, fn)
		WalkExpr(t.On, fn)
	}
}

// WalkStmt calls fn for s and every nested statement, in pre-order.
// Returning false stops descent into that statement's children.
func WalkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch st := s.(type) {
	case *Block:
		for _, inner := range st.Stmts {
			WalkStmt(inner, fn)
		}
	case *IfStmt:
		WalkStmt(st.Then, fn)
		WalkStmt(st.Else, fn)
	case *WhileStmt:
		WalkStmt(st.Body, fn)
	case *ForStmt:
		WalkStmt(st.Body, fn)
	case *TryCatch:
		WalkStmt(st.Try, fn)
		WalkStmt(st.Catch, fn)
	case *CreateFunction:
		WalkStmt(st.Body, fn)
	case *CreateProcedure:
		WalkStmt(st.Body, fn)
	case *CreateAggregate:
		WalkStmt(st.Init, fn)
		WalkStmt(st.Accum, fn)
		WalkStmt(st.Terminate, fn)
		if st.Merge != nil {
			WalkStmt(st.Merge, fn)
		}
	}
}

// StmtExprs calls fn for every expression directly attached to statement s
// (not descending into nested statements; queries embedded in the statement
// are visited through WalkSelectExprs).
func StmtExprs(s Stmt, fn func(Expr) bool) {
	visit := func(e Expr) {
		if e != nil {
			WalkExpr(e, fn)
		}
	}
	switch st := s.(type) {
	case *DeclareVar:
		visit(st.Init)
	case *SetStmt:
		visit(st.Value)
	case *IfStmt:
		visit(st.Cond)
	case *WhileStmt:
		visit(st.Cond)
	case *ForStmt:
		visit(st.InitExpr)
		visit(st.Cond)
		visit(st.PostExpr)
	case *ReturnStmt:
		visit(st.Value)
	case *DeclareCursor:
		WalkSelectExprs(st.Query, fn)
	case *QueryStmt:
		WalkSelectExprs(st.Query, fn)
	case *ExplainStmt:
		WalkSelectExprs(st.Query, fn)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				visit(e)
			}
		}
		if st.Query != nil {
			WalkSelectExprs(st.Query, fn)
		}
	case *UpdateStmt:
		for _, sc := range st.Sets {
			visit(sc.Value)
		}
		visit(st.Where)
	case *DeleteStmt:
		visit(st.Where)
	case *PrintStmt:
		visit(st.E)
	case *ExecStmt:
		for _, a := range st.Args {
			visit(a)
		}
	case *TraceProcStmt:
		for _, a := range st.Args {
			visit(a)
		}
	}
}

// HasSubquery reports whether e contains an embedded SELECT anywhere: a
// scalar/EXISTS subquery or an IN (subquery). The planner's rewrite rules
// use it to keep predicates with nested query blocks out of transformations
// that only reason about the current block.
func HasSubquery(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *Subquery:
			found = true
			return false
		case *InExpr:
			if t.Query != nil {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// ColRefs returns every column reference in e in visit order, including
// references inside embedded subqueries (correlated references matter to
// the callers classifying predicates).
func ColRefs(e Expr) []*ColRef {
	var out []*ColRef
	WalkExpr(e, func(x Expr) bool {
		if cr, ok := x.(*ColRef); ok {
			out = append(out, cr)
		}
		return true
	})
	return out
}

// VarsInExpr returns the set of variable names referenced in e, including
// variables inside embedded subqueries.
func VarsInExpr(e Expr) map[string]bool {
	out := map[string]bool{}
	WalkExpr(e, func(x Expr) bool {
		if v, ok := x.(*VarRef); ok {
			out[v.Name] = true
		}
		return true
	})
	return out
}

// VarsInSelect returns the set of variable names referenced anywhere in q.
func VarsInSelect(q *Select) map[string]bool {
	out := map[string]bool{}
	WalkSelectExprs(q, func(x Expr) bool {
		if v, ok := x.(*VarRef); ok {
			out[v.Name] = true
		}
		return true
	})
	return out
}
