package interp

import (
	"errors"
	"fmt"
	"strings"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/exec"
	"aggify/internal/sqltypes"
)

// execExplainProc runs EXPLAIN PROCEDURE p: the routine is compiled (not
// executed) and the result set shows the three-tier execution picture —
// which cursor loops Aggify would rewrite (and, for rejections, the
// stable reason code), then every body statement with the tier the
// compiler chose for it and why.
func (r *Runner) execExplainProc(st *ast.ExplainProcStmt) error {
	var lines []string
	if def, ok := r.Sess.Eng.Procedure(st.Proc); ok {
		lines = routineTierLines("procedure", def.Name, routineFor(r.Sess.Eng, def), def.Body)
	} else if def, ok := r.Sess.Eng.Function(st.Proc); ok {
		lines = routineTierLines("function", def.Name, routineFor(r.Sess.Eng, def), def.Body)
	} else {
		return fmt.Errorf("interp: unknown procedure %s", st.Proc)
	}
	rows := make([]exec.Row, len(lines))
	for i, l := range lines {
		rows[i] = exec.Row{sqltypes.NewString(l)}
	}
	r.Results = append(r.Results, ResultSet{Columns: []string{"tier"}, Rows: rows})
	return nil
}

// routineTierLines renders the EXPLAIN PROCEDURE report.
func routineTierLines(kind, name string, rt *routine, body *ast.Block) []string {
	var out []string
	if rt == nil {
		out = append(out, fmt.Sprintf("%s %s: compilation unavailable, fully interpreted", kind, name))
	} else {
		compiled, total := TierCoverage(rt.tiers)
		out = append(out, fmt.Sprintf("%s %s: %d/%d statements compiled", kind, name, compiled, total))
	}
	// Aggify tier first: per cursor loop, would the rewrite fire?
	for _, loop := range core.FindCursorLoops(body) {
		if err := core.CheckApplicability(loop, core.OuterTableVars(body, loop.While.Body)); err != nil {
			code := core.ReasonUnmatchedPattern
			var na *core.NotAggifiableError
			if errors.As(err, &na) {
				code = na.Code
			}
			out = append(out, fmt.Sprintf("cursor loop %s: aggify=rejected code=%s (%s)", loop.Cursor, code, err.Error()))
		} else {
			out = append(out, fmt.Sprintf("cursor loop %s: aggify=candidate", loop.Cursor))
		}
	}
	for range core.FindUnmatchedCursorWhiles(body) {
		out = append(out, fmt.Sprintf("cursor-style WHILE: aggify=never_attempted code=%s", core.ReasonUnmatchedPattern))
	}
	if rt == nil {
		return out
	}
	for _, t := range rt.tiers {
		line := strings.Repeat("  ", t.Depth) + t.Text + " [" + t.Tier
		if t.Why != "" {
			line += ": " + t.Why
		}
		line += "]"
		out = append(out, line)
	}
	return out
}
