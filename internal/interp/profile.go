package interp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/sqltypes"
)

// Profile collects per-statement execution statistics for one profiled
// invocation. Statements are keyed by AST node identity (all statement nodes
// are pointers), so the same node executed many times — a loop body —
// accumulates into one entry. Times are inclusive: a WHILE's entry covers
// everything run inside it.
type Profile struct {
	stmts map[ast.Stmt]*stmtStats
	// fetchOK counts successful fetches (a row assigned) per FETCH node,
	// which is how rows-per-loop is attributed.
	fetchOK map[*ast.FetchStmt]int64
}

// stmtStats is one statement node's accumulated cost.
type stmtStats struct {
	count int64
	wall  time.Duration
	reads int64
}

func newProfile() *Profile {
	return &Profile{stmts: map[ast.Stmt]*stmtStats{}, fetchOK: map[*ast.FetchStmt]int64{}}
}

func (p *Profile) stat(s ast.Stmt) *stmtStats {
	st, ok := p.stmts[s]
	if !ok {
		st = &stmtStats{}
		p.stmts[s] = st
	}
	return st
}

// Count returns how many times the statement node executed.
func (p *Profile) Count(s ast.Stmt) int64 {
	if st, ok := p.stmts[s]; ok {
		return st.count
	}
	return 0
}

// Wall returns the statement node's inclusive wall time.
func (p *Profile) Wall(s ast.Stmt) time.Duration {
	if st, ok := p.stmts[s]; ok {
		return st.wall
	}
	return 0
}

// Reads returns the statement node's inclusive logical reads.
func (p *Profile) Reads(s ast.Stmt) int64 {
	if st, ok := p.stmts[s]; ok {
		return st.reads
	}
	return 0
}

// LoopProfile aggregates one cursor loop's cost within a profiled
// invocation.
type LoopProfile struct {
	// Cursor names the loop's cursor.
	Cursor string
	// Iterations is how many times the loop body ran.
	Iterations int64
	// RowsFetched counts rows the loop's FETCH statements assigned
	// (priming fetch included).
	RowsFetched int64
	// BodyWall / BodyReads are the inclusive cost of the loop body across
	// all iterations; LoopWall is the WHILE statement itself (condition
	// re-evaluation included).
	BodyWall  time.Duration
	BodyReads int64
	LoopWall  time.Duration
	// TimeShare is LoopWall as a fraction of the whole invocation, in
	// [0, 1].
	TimeShare float64
	// AggifyCandidate reports that the Aggify applicability analysis
	// (§4.2) accepts the loop; Reason explains a rejection and Code is
	// its stable reason code (see core.ReasonCode).
	AggifyCandidate bool
	Reason          string
	Code            core.ReasonCode
}

// ProcedureProfile is the result of one TRACE PROCEDURE invocation.
type ProcedureProfile struct {
	Proc  string
	Wall  time.Duration
	Reads int64
	Loops []LoopProfile
	// NeverAttempted counts cursor-style WHILE loops (conditioned on
	// @@fetch_status) that the rewrite pattern matcher did not even
	// attempt — as opposed to matched loops it examined and rejected.
	NeverAttempted int
	// Stmts lists the top-level body statements with their inclusive
	// costs, in source order (the per-statement attribution view).
	Stmts []StmtProfile
}

// StmtProfile is one statement's attributed cost.
type StmtProfile struct {
	Text  string // first line of the rendered statement
	Count int64
	Wall  time.Duration
	Reads int64
	// Tier is the execution tier the compile-first pipeline chose for
	// this statement ("" when the whole procedure runs interpreted);
	// TierWhy explains an interpreted choice.
	Tier    string
	TierWhy string
}

// ProfileProcedure runs a registered procedure with profiling enabled and
// returns the per-statement and per-loop attribution. The procedure really
// executes (side effects included), exactly like EXEC.
func ProfileProcedure(s *engine.Session, name string, args ...sqltypes.Value) (*ProcedureProfile, error) {
	def, ok := s.Eng.Procedure(name)
	if !ok {
		return nil, fmt.Errorf("interp: unknown procedure %s", name)
	}
	r := NewRunner(s)
	r.Prof = newProfile()
	defer r.cleanup()
	if err := bindParams(r.Frame, def.Params, args, r.eval); err != nil {
		return nil, fmt.Errorf("interp: profiling %s: %w", name, err)
	}
	start := time.Now()
	readsBefore := s.Stats.LogicalReads.Load()
	err := r.Run(def.Body.Stmts)
	if _, isReturn := err.(returnSignal); isReturn {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	return buildProcedureProfile(name, def.Body, r.Prof, wall, s.Stats.LogicalReads.Load()-readsBefore, routineFor(s.Eng, def)), nil
}

// buildProcedureProfile assembles the report from the raw per-node stats,
// joining on the compile-first pipeline's tier decisions when the
// procedure has a compiled form.
func buildProcedureProfile(name string, body *ast.Block, prof *Profile, wall time.Duration, reads int64, rt *routine) *ProcedureProfile {
	out := &ProcedureProfile{Proc: name, Wall: wall, Reads: reads}
	for _, loop := range core.FindCursorLoops(body) {
		lp := LoopProfile{
			Cursor:      loop.Cursor,
			Iterations:  prof.Count(loop.While.Body),
			RowsFetched: prof.fetchOK[loop.Prime] + prof.fetchOK[loop.Inner],
			BodyWall:    prof.Wall(loop.While.Body),
			BodyReads:   prof.Reads(loop.While.Body),
			LoopWall:    prof.Wall(loop.While),
		}
		if wall > 0 {
			lp.TimeShare = float64(lp.LoopWall) / float64(wall)
		}
		if err := core.CheckApplicability(loop, core.OuterTableVars(body, loop.While.Body)); err != nil {
			lp.Reason = err.Error()
			lp.Code = core.ReasonUnmatchedPattern
			var na *core.NotAggifiableError
			if errors.As(err, &na) {
				lp.Code = na.Code
			}
		} else {
			lp.AggifyCandidate = true
		}
		out.Loops = append(out.Loops, lp)
	}
	for range core.FindUnmatchedCursorWhiles(body) {
		out.NeverAttempted++
		core.CountUnmatched()
	}
	tierOf := map[ast.Stmt]StmtTier{}
	if rt != nil {
		for _, t := range rt.tiers {
			if t.node != nil {
				tierOf[t.node] = t
			}
		}
	}
	for _, st := range body.Stmts {
		sp := StmtProfile{
			Text:  stmtLabel(st),
			Count: prof.Count(st),
			Wall:  prof.Wall(st),
			Reads: prof.Reads(st),
		}
		if t, ok := tierOf[st]; ok {
			sp.Tier, sp.TierWhy = t.Tier, t.Why
		}
		out.Stmts = append(out.Stmts, sp)
	}
	// Heaviest loops first: the report exists to point at the loop worth
	// aggifying.
	sort.SliceStable(out.Loops, func(i, j int) bool { return out.Loops[i].LoopWall > out.Loops[j].LoopWall })
	return out
}

// stmtLabel renders a statement's first line as its report label.
func stmtLabel(s ast.Stmt) string {
	text := ast.Format(s)
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			return text[:i]
		}
	}
	return text
}

// Lines renders the profile as the TRACE PROCEDURE result set, one line per
// row. The format is stable enough for tests to assert on: the procedure
// header, each top-level statement, then each cursor loop with its
// aggify_candidate verdict.
func (p *ProcedureProfile) Lines() []string {
	out := []string{fmt.Sprintf("procedure %s: wall_us=%d reads=%d", p.Proc, p.Wall.Microseconds(), p.Reads)}
	for _, st := range p.Stmts {
		line := fmt.Sprintf("stmt count=%d wall_us=%d reads=%d :: %s", st.Count, st.Wall.Microseconds(), st.Reads, st.Text)
		if st.Tier != "" {
			line += " tier=" + st.Tier
			if st.TierWhy != "" {
				line += " (" + st.TierWhy + ")"
			}
		}
		out = append(out, line)
	}
	for _, lp := range p.Loops {
		verdict := "aggify_candidate=false verdict=rejected code=" + string(lp.Code)
		if lp.AggifyCandidate {
			verdict = "aggify_candidate=true"
		}
		line := fmt.Sprintf("cursor loop %s: iterations=%d rows_fetched=%d body_wall_us=%d body_reads=%d time_share=%.1f%% %s",
			lp.Cursor, lp.Iterations, lp.RowsFetched, lp.BodyWall.Microseconds(), lp.BodyReads, lp.TimeShare*100, verdict)
		if lp.Reason != "" {
			line += " (" + lp.Reason + ")"
		}
		out = append(out, line)
	}
	for i := 0; i < p.NeverAttempted; i++ {
		out = append(out, fmt.Sprintf("cursor-style WHILE loop: verdict=never_attempted code=%s", core.ReasonUnmatchedPattern))
	}
	return out
}
