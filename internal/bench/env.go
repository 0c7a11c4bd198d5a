// Package bench contains the experiment harness that regenerates every
// table and figure of the paper's evaluation (§10). Each experiment is
// exposed both to `go test -bench` (bench_test.go at the repository root)
// and to cmd/aggify-bench, which prints the paper-style rows.
package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/froid"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/storage"
	"aggify/internal/tpch"
)

// Mode selects the execution strategy under measurement.
type Mode int

const (
	// Original runs the cursor-loop UDFs as written.
	Original Mode = iota
	// Aggify runs the automatically transformed UDFs (loop → custom
	// aggregate, Eq. 5/6 rewrite).
	Aggify
	// AggifyPlus additionally Froid-inlines the transformed UDFs into the
	// driver query, enabling the planner's decorrelation (§8.2).
	AggifyPlus
)

func (m Mode) String() string {
	switch m {
	case Original:
		return "Original"
	case Aggify:
		return "Aggify"
	case AggifyPlus:
		return "Aggify+"
	}
	return "?"
}

// aggifiedSuffix namespaces the transformed UDFs so both versions coexist
// in one engine.
const aggifiedSuffix = "_aggified"

// Env is a loaded benchmark database with both the original and the
// transformed versions of every workload UDF registered.
type Env struct {
	Eng *engine.Engine
	SF  float64
	// AggifiedFuncs maps original UDF names to their transformed
	// definitions (for Froid inlining in Aggify+ mode).
	AggifiedFuncs map[string]*ast.CreateFunction
	// SessionInit runs on every measurement session before the driver
	// (creates the temp tables some loops write into).
	SessionInit string
}

// newEnv wraps a populated engine.
func newEnv(eng *engine.Engine, sf float64) *Env {
	return &Env{Eng: eng, SF: sf, AggifiedFuncs: map[string]*ast.CreateFunction{}}
}

// RegisterWorkloadFuncs executes a setup script defining cursor-loop UDFs,
// transforms each named UDF with Aggify, and registers the generated
// aggregates plus the rewritten UDFs under <name>_aggified.
func (env *Env) RegisterWorkloadFuncs(setup string, funcs []string) error {
	sess := env.Eng.NewSession()
	if _, err := interp.RunScript(sess, parser.MustParse(setup)); err != nil {
		return fmt.Errorf("bench: setup: %w", err)
	}
	for _, fname := range funcs {
		def, ok := env.Eng.Function(fname)
		if !ok {
			return fmt.Errorf("bench: missing UDF %s", fname)
		}
		rewritten, res, err := core.TransformFunction(def, core.Options{})
		if err != nil {
			return fmt.Errorf("bench: aggify %s: %w", fname, err)
		}
		for _, lr := range res.Loops {
			if err := env.Eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
				return err
			}
		}
		env.AggifiedFuncs[fname] = rewritten
		reg := ast.CloneStmt(rewritten).(*ast.CreateFunction)
		reg.Name = fname + aggifiedSuffix
		renameFuncCallsInStmt(reg, env.renamable())
		if err := env.Eng.RegisterFunction(reg); err != nil {
			return err
		}
	}
	return nil
}

var (
	tpchMu    sync.Mutex
	tpchCache = map[float64]*Env{}
)

// LoadTPCH builds (or returns a cached) TPC-H environment at the given
// scale factor with the full six-query workload registered.
func LoadTPCH(sf float64) (*Env, error) {
	tpchMu.Lock()
	defer tpchMu.Unlock()
	if env, ok := tpchCache[sf]; ok {
		return env, nil
	}
	eng := engine.New()
	interp.Install(eng)
	if err := tpch.Load(eng, sf); err != nil {
		return nil, err
	}
	env := newEnv(eng, sf)
	for _, q := range tpch.Queries() {
		if err := env.RegisterWorkloadFuncs(q.Setup, q.Funcs); err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
	}
	tpchCache[sf] = env
	return env, nil
}

// renamable returns the set of UDF names that have aggified variants.
func (env *Env) renamable() map[string]bool {
	out := map[string]bool{}
	for name := range env.AggifiedFuncs {
		out[name] = true
	}
	return out
}

// Result is one measured execution.
type Result struct {
	Query    string
	Mode     Mode
	Rows     int
	Elapsed  time.Duration
	Stats    storage.Snapshot
	TimedOut bool
	// Checksum is an order-insensitive hash of the result rows, used by
	// tests to compare modes.
	Checksum uint64
}

// RunTPCH executes one workload query under a mode. limit restricts the
// driving key range (0 = full); timeout caps execution (0 = none), with
// expiry reported as TimedOut — the paper's "forcibly terminated" runs.
func (env *Env) RunTPCH(q *tpch.WorkloadQuery, mode Mode, limit int, timeout time.Duration) (*Result, error) {
	res, err := env.RunDriver(q.Driver(limit), mode, timeout)
	if err != nil {
		return nil, err
	}
	res.Query = q.ID
	return res, nil
}

// RunDriver executes an invoking query under a mode with a fresh session.
func (env *Env) RunDriver(driverSQL string, mode Mode, timeout time.Duration) (*Result, error) {
	return env.RunDriverSession(driverSQL, mode, timeout, nil)
}

// RunDriverSession is RunDriver with a hook to configure the measurement
// session (planner options, worktable mode) before execution.
func (env *Env) RunDriverSession(driverSQL string, mode Mode, timeout time.Duration, configure func(*engine.Session)) (*Result, error) {
	driver, err := env.rewriteDriver(driverSQL, mode)
	if err != nil {
		return nil, err
	}
	sess, err := env.newSession(mode, configure)
	if err != nil {
		return nil, err
	}
	var stop chan struct{}
	if timeout > 0 {
		stop = make(chan struct{})
		timer := time.AfterFunc(timeout, func() { close(stop) })
		defer timer.Stop()
		sess.Interrupt = stop
	}
	before := sess.Stats.Snapshot()
	start := time.Now()
	_, rows, err := sess.Query(driver, sess.Ctx(nil, nil))
	elapsed := time.Since(start)
	res := &Result{Mode: mode, Elapsed: elapsed, Stats: sess.Stats.Snapshot().Sub(before)}
	if err != nil {
		if err == exec.ErrInterrupted {
			res.TimedOut = true
			return res, nil
		}
		return nil, err
	}
	res.Rows = len(rows)
	res.Checksum = checksumRows(rows)
	return res, nil
}

// newSession opens a measurement session for mode: configured, with the
// environment's temp tables. Aggify mode keeps the rewritten UDFs as calls,
// the paper's Aggify configuration, so it turns inline_udf off; inlining
// them is what AggifyPlus measures.
func (env *Env) newSession(mode Mode, configure func(*engine.Session)) (*engine.Session, error) {
	sess := env.Eng.NewSession()
	if mode == Aggify {
		sess.Opts.DisableRules |= plan.RuleInlineUDF
	}
	if configure != nil {
		configure(sess)
	}
	if env.SessionInit != "" {
		if _, err := interp.RunScript(sess, parser.MustParse(env.SessionInit)); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// rewriteDriver parses a driver query and applies the mode's UDF rewrite
// (rename to the aggified variants, or Froid-inline them for Aggify+).
func (env *Env) rewriteDriver(driverSQL string, mode Mode) (*ast.Select, error) {
	driver := parser.MustParse(driverSQL)[0].(*ast.QueryStmt).Query
	switch mode {
	case Original:
		// as parsed
	case Aggify:
		renameFuncCallsInSelect(driver, env.renamable())
	case AggifyPlus:
		inlined, _, err := froid.InlineInSelect(driver, func(name string) (*ast.CreateFunction, bool) {
			def, ok := env.AggifiedFuncs[name]
			return def, ok
		})
		if err != nil {
			return nil, err
		}
		driver = inlined
	}
	return driver, nil
}

// InstrumentedResult is a measured execution carrying the per-operator
// runtime breakdown alongside the headline numbers.
type InstrumentedResult struct {
	Result
	// PlanLines is the EXPLAIN ANALYZE tree: one line per operator with its
	// runtime counters, as rendered by plan.Instrumentation.
	PlanLines []string
	// OperatorReads sums the per-operator exclusive read deltas; by
	// construction it equals Result.Stats (tests assert the invariant).
	OperatorReads storage.Snapshot
}

// RunDriverInstrumented executes a driver query under a mode with an
// instrumented operator tree, returning both the usual measurement and the
// per-operator breakdown.
func (env *Env) RunDriverInstrumented(driverSQL string, mode Mode, configure func(*engine.Session)) (*InstrumentedResult, error) {
	driver, err := env.rewriteDriver(driverSQL, mode)
	if err != nil {
		return nil, err
	}
	sess, err := env.newSession(mode, configure)
	if err != nil {
		return nil, err
	}
	p, err := sess.PlanQuery(driver, nil)
	if err != nil {
		return nil, err
	}
	before := sess.Stats.Snapshot()
	start := time.Now()
	rows, ins, err := p.RunInstrumented(sess.Ctx(nil, nil))
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	res := &InstrumentedResult{
		Result: Result{
			Mode:     mode,
			Rows:     len(rows),
			Elapsed:  elapsed,
			Stats:    sess.Stats.Snapshot().Sub(before),
			Checksum: checksumRows(rows),
		},
		PlanLines:     strings.Split(strings.TrimRight(ins.Render(), "\n"), "\n"),
		OperatorReads: ins.TotalExclusive(),
	}
	return res, nil
}

// checksumRows builds an order-insensitive checksum of a result set.
func checksumRows(rows []exec.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, v := range r {
			h = (h ^ hashValue(v)) * 1099511628211
		}
		sum += h
	}
	return sum
}

func hashValue(v interface{ String() string }) uint64 {
	s := v.String()
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// renameFuncCallsInSelect appends the aggified suffix to calls of the
// given UDFs throughout a query.
func renameFuncCallsInSelect(q *ast.Select, names map[string]bool) {
	ast.WalkSelectExprs(q, func(e ast.Expr) bool {
		if fc, ok := e.(*ast.FuncCall); ok && names[strings.ToLower(fc.Name)] {
			fc.Name = strings.ToLower(fc.Name) + aggifiedSuffix
		}
		return true
	})
}

// renameFuncCallsInStmt does the same inside a statement tree (so aggified
// UDFs call the aggified versions of their callees).
func renameFuncCallsInStmt(s ast.Stmt, names map[string]bool) {
	ast.WalkStmt(s, func(st ast.Stmt) bool {
		ast.StmtExprs(st, func(e ast.Expr) bool {
			if fc, ok := e.(*ast.FuncCall); ok && names[strings.ToLower(fc.Name)] {
				fc.Name = strings.ToLower(fc.Name) + aggifiedSuffix
			}
			return true
		})
		return true
	})
}
