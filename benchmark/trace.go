package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"aggify"
	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/fingerprint"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/tpch"
	"aggify/internal/wal"
	"aggify/internal/wire"
)

// The traced run. Spans are recorded from the benchmark's own files, around
// the calls into each layer's public functions; nothing inside the program
// is instrumented. A stepwise driver replays an operation the way the
// client, the wire and server.Backend would, one public call per step, and
// the same operations also run through server.Backend itself so the
// difference between the two is known (trace.unattributed_share).

// span is one timed call. Spans of one operation share its Op id; Parent
// indexes the span that caused this one (-1 for the operation's root).
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in a preallocated slice; it is written out when the
// run ends. Switched off, begin and end do nothing, which is the untraced
// stepwise pass that trace.overhead_share compares against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	op    int32
	cur   int32 // innermost open span, the parent of the next one
}

func newRecorder(on bool, capacity int) *recorder {
	return &recorder{on: on, t0: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: r.cur, Start: time.Since(r.t0).Nanoseconds()})
	r.cur = id
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.cur = r.spans[id].Parent
}

// selfTimes returns each span's duration minus the part its children cover,
// summed by span name.
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// layerOf maps a span name to its layer: the module name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// openInproc opens the same database the daemon serves, in-process: the
// same flags' effect (TPC-H load, data directory with group commit) and the
// same set-up script. Close it with db.Engine().CloseData().
func openInproc(w workload, dataDir string) (*aggify.DB, error) {
	sp := w.spec()
	db := aggify.Open()
	if sp.durable {
		if err := db.Engine().OpenData(dataDir, wal.SyncGroup); err != nil {
			return nil, err
		}
	}
	if sp.tpch {
		if err := tpch.Load(db.Engine(), tpchSF); err != nil {
			return nil, err
		}
	}
	if src := w.script(); src != "" {
		if err := db.Exec(src); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// opRunner runs one operation in-process and returns its rows.
type opRunner interface {
	run(o *op) ([][]sqltypes.Value, error)
	session() *engine.Session
}

// backendRunner drives server.Backend directly: the real server-side path
// of one connection, without a socket.
type backendRunner struct {
	b   *server.Backend
	ids []uint32
}

func newBackendRunner(db *aggify.DB, w workload) (*backendRunner, error) {
	r := &backendRunner{b: server.NewBackend(db.Engine())}
	for _, sql := range w.statements() {
		id, err := r.b.Prepare(sql)
		if err != nil {
			return nil, err
		}
		r.ids = append(r.ids, id)
	}
	return r, nil
}

func (r *backendRunner) session() *engine.Session { return r.b.Session() }

func (r *backendRunner) run(o *op) ([][]sqltypes.Value, error) {
	if o.stmt < 0 {
		res, err := r.b.Exec(o.sql)
		if err != nil || len(res.Sets) == 0 {
			return nil, err
		}
		return res.Sets[0].Rows, nil
	}
	cur, _, err := r.b.Query(r.ids[o.stmt], o.args)
	if err != nil {
		return nil, err
	}
	var rows [][]sqltypes.Value
	for {
		batch, done, err := r.b.Fetch(cur, fetchSize)
		if err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
		if done {
			return rows, nil
		}
	}
}

// fetchSize is the client's default rows per Fetch round trip.
const fetchSize = 128

// stepper replays an operation step by step: request encode and frame,
// frame read and decode, the statements of server.Backend and
// engine.Session.Query spelled out as their public calls, reply encode and
// frame, reply read and decode.
type stepper struct {
	rec   *recorder
	sess  *engine.Session
	stmts []preparedStmt
	buf   bytes.Buffer

	// serverNanos is the time the current operation spent inside the
	// server.* steps, kept whether or not spans are recorded: the part that
	// stands for one Backend call.
	serverNanos int64

	udfCalls map[string]int64              // UDF name -> calls seen by the hook
	udfNanos map[string]int64              // UDF name -> time inside those calls
	udfArgs  map[string][][]sqltypes.Value // UDF name -> a sample of argument lists
	planMiss int64                         // engine.plan spans that compiled a plan
	stmtRecs int64                         // engine.stmt_begin spans (one fingerprint each)
}

// udfSample bounds how many argument lists per UDF the calibration replays.
const udfSample = 200

type preparedStmt struct {
	q   *ast.Select
	src string
}

func newStepper(db *aggify.DB, w workload, rec *recorder) (*stepper, error) {
	st := &stepper{rec: rec, sess: db.Engine().NewSession(),
		udfCalls: map[string]int64{}, udfNanos: map[string]int64{}, udfArgs: map[string][][]sqltypes.Value{}}
	for _, sql := range w.statements() {
		stmts, err := parser.Parse(sql)
		if err != nil {
			return nil, err
		}
		qs, ok := stmts[0].(*ast.QueryStmt)
		if !ok || len(stmts) != 1 {
			return nil, fmt.Errorf("stepper: %q is not a single SELECT", sql)
		}
		st.stmts = append(st.stmts, preparedStmt{q: qs.Query, src: sql})
	}
	return st, nil
}

func (st *stepper) session() *engine.Session { return st.sess }

// resetCounters forgets what the warm-up pass added.
func (st *stepper) resetCounters() {
	st.planMiss, st.stmtRecs = 0, 0
}

func (st *stepper) run(o *op) ([][]sqltypes.Value, error) {
	root := st.rec.begin("client.op")
	defer st.rec.end(root)
	if o.stmt < 0 {
		return st.execBatch(o.sql)
	}
	return st.queryAndFetch(uint32(o.stmt), o.args)
}

// server brackets one server-side step with a span and the serverNanos
// clock.
func (st *stepper) server(name string) func() {
	s := st.rec.begin(name)
	t0 := time.Now()
	return func() {
		st.serverNanos += time.Since(t0).Nanoseconds()
		st.rec.end(s)
	}
}

// ship passes one frame through the codec as a socket would, minus the
// socket: WriteFrame into a buffer, ReadFrame back out.
func (st *stepper) ship(typ wire.MsgType, body []byte) ([]byte, error) {
	st.buf.Reset()
	if _, err := wire.WriteFrame(&st.buf, typ, body); err != nil {
		return nil, err
	}
	_, out, _, err := wire.ReadFrame(&st.buf)
	return out, err
}

func (st *stepper) queryAndFetch(stmt uint32, args []sqltypes.Value) ([][]sqltypes.Value, error) {
	s := st.rec.begin("wire.request")
	body, err := st.ship(wire.MsgQuery, wire.EncodeQueryReq(stmt, args))
	if err == nil {
		stmt, args, err = wire.DecodeQueryReq(body)
	}
	st.rec.end(s)
	if err != nil {
		return nil, err
	}

	done := st.server("server.query")
	ps := st.stmts[stmt]
	ctx := st.newCtx()
	ctx.Params = args
	cols, result, err := st.statement(ps.src, func() ([]string, []exec.Row, error) { return st.query(ps.q, ctx) })
	done()
	if err != nil {
		return nil, err
	}

	s = st.rec.begin("wire.response")
	body, err = st.ship(wire.MsgCursor, wire.EncodeCursorResp(1, cols))
	if err == nil {
		_, _, err = wire.DecodeCursorResp(body)
	}
	st.rec.end(s)
	if err != nil {
		return nil, err
	}

	var rows [][]sqltypes.Value
	for pos, done := 0, false; !done; {
		s = st.rec.begin("wire.request")
		body, err = st.ship(wire.MsgFetch, wire.EncodeFetchReq(1, fetchSize))
		if err == nil {
			_, _, err = wire.DecodeFetchReq(body)
		}
		st.rec.end(s)
		if err != nil {
			return nil, err
		}

		end := st.server("server.fetch")
		hi := pos + fetchSize
		if hi > len(result) {
			hi = len(result)
		}
		batch := result[pos:hi]
		pos, done = hi, hi >= len(result)
		end()

		s = st.rec.begin("wire.response")
		body, err = st.ship(wire.MsgRows, wire.EncodeRowsResp(batch, done))
		var got [][]sqltypes.Value
		if err == nil {
			got, _, err = wire.DecodeRowsResp(body)
		}
		st.rec.end(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, got...)
	}
	return rows, nil
}

func (st *stepper) execBatch(src string) ([][]sqltypes.Value, error) {
	s := st.rec.begin("wire.request")
	body, err := st.ship(wire.MsgExec, []byte(src))
	st.rec.end(s)
	if err != nil {
		return nil, err
	}
	src = string(body)

	done := st.server("server.exec")
	res, err := st.script(src)
	done()
	if err != nil {
		return nil, err
	}

	s = st.rec.begin("wire.response")
	body, err = st.ship(wire.MsgResults, wire.EncodeExecResult(res))
	var got *wire.ExecResult
	if err == nil {
		got, err = wire.DecodeExecResult(body)
	}
	st.rec.end(s)
	if err != nil || len(got.Sets) == 0 {
		return nil, err
	}
	return got.Sets[0].Rows, nil
}

// script is server.Backend.Exec and interp.RunScriptSpans spelled out for
// the statement kinds the workloads send.
func (st *stepper) script(src string) (*wire.ExecResult, error) {
	s := st.rec.begin("parser.parse")
	stmts, spans, err := parser.ParseSpans(src)
	st.rec.end(s)
	if err != nil {
		return nil, err
	}
	ctx := st.newCtx()
	res := &wire.ExecResult{}
	for i, stmt := range stmts {
		text := src[spans[i].Start:spans[i].End]
		cols, rows, err := st.statement(text, func() ([]string, []exec.Row, error) {
			switch t := stmt.(type) {
			case *ast.QueryStmt:
				return st.query(t.Query, ctx)
			case *ast.TxnStmt:
				if t.Op == ast.TxnBegin {
					s := st.rec.begin("txn.begin")
					defer st.rec.end(s)
					return nil, nil, st.sess.BeginTxn()
				}
				// Commit is the transaction manager and, with a data
				// directory, the WAL append and group fsync under it; the
				// two cannot be told apart from outside.
				s := st.rec.begin("txn.commit")
				defer st.rec.end(s)
				return nil, nil, st.sess.CommitTxn()
			case *ast.InsertStmt:
				s := st.rec.begin("storage.insert")
				defer st.rec.end(s)
				_, err := st.sess.Insert(t, ctx)
				return nil, nil, err
			case *ast.UpdateStmt:
				s := st.rec.begin("storage.update")
				defer st.rec.end(s)
				_, err := st.sess.Update(t, ctx)
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("stepper: no step for %T", stmt)
		})
		if err != nil {
			return nil, err
		}
		if cols != nil {
			res.Sets = append(res.Sets, wire.ResultSet{Columns: cols, Rows: rows})
		}
	}
	res.Prints = st.sess.Prints()
	return res, nil
}

// statement brackets one top-level statement with the session's statement
// recorder, as Backend.Query and RunScriptSpans do.
func (st *stepper) statement(text string, body func() ([]string, []exec.Row, error)) ([]string, []exec.Row, error) {
	s := st.rec.begin("engine.stmt_begin")
	rec := st.sess.BeginStmt(text)
	st.rec.end(s)
	st.stmtRecs++
	cols, rows, err := body()
	s = st.rec.begin("engine.stmt_end")
	st.sess.EndStmt(rec, err)
	st.rec.end(s)
	return cols, rows, err
}

// query is engine.Session.Query spelled out: pin a snapshot, get the plan,
// run it.
func (st *stepper) query(q *ast.Select, ctx *exec.Ctx) ([]string, []exec.Row, error) {
	defer st.sess.PinRead(ctx)()
	misses := st.sess.PlanCacheMisses()
	s := st.rec.begin("engine.plan")
	p, err := st.sess.PlanQuery(q, ctx.Temp)
	st.rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	st.planMiss += st.sess.PlanCacheMisses() - misses
	s = st.rec.begin("exec.run")
	rows, err := p.Run(ctx)
	st.rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	st.sess.Stats.RowsEmitted.Add(int64(len(rows)))
	return p.Columns, rows, nil
}

// newCtx builds the statement's execution context with every UDF call
// wrapped in a span.
func (st *stepper) newCtx() *exec.Ctx {
	ctx := st.sess.Ctx(nil, nil)
	call := ctx.CallFunc
	ctx.CallFunc = func(name string, args []sqltypes.Value) (sqltypes.Value, error) {
		if !st.rec.on {
			return call(name, args)
		}
		s := st.rec.begin("interp.call")
		v, err := call(name, args)
		st.rec.end(s)
		st.udfCalls[name]++
		st.udfNanos[name] += st.rec.spans[s].End - st.rec.spans[s].Start
		if len(st.udfArgs[name]) < udfSample {
			st.udfArgs[name] = append(st.udfArgs[name], append([]sqltypes.Value(nil), args...))
		}
		return v, err
	}
	return ctx
}

// passResult is one runner's in-process pass over the traced operations.
type passResult struct {
	nanos  []int64 // each timed operation's wall time
	server []int64 // stepwise driver only: the time inside its server.* steps
	failed int
	first  error
	stats  storage.Snapshot // session I/O delta over the pass
	hits   int64            // plan-cache hits over the pass
	misses int64
}

// passChunk is how many operations one runner executes before the next
// runner takes its turn at the same ones.
const passChunk = 20

// runPasses takes every runner, each on its own database, through the same
// operations: the W warm-up operations untimed, then operations W..W+K-1
// timed one by one, every answer checked. The runners take turns chunk by
// chunk, so drift of the machine over the run falls on all of them alike.
// rec is recording only while its own runner, the last, is being timed.
func runPasses(w workload, runners []opRunner, rec *recorder) []passResult {
	sp := w.spec()
	out := make([]passResult, len(runners))
	checkers := make([]checker, len(runners))
	step := func(r, i int, timed bool) {
		o := w.op(i)
		st, _ := runners[r].(*stepper)
		if st != nil {
			st.serverNanos = 0
		}
		t0 := time.Now()
		rows, err := runners[r].run(&o)
		if timed {
			out[r].nanos = append(out[r].nanos, time.Since(t0).Nanoseconds())
			if st != nil {
				out[r].server = append(out[r].server, st.serverNanos)
			}
		}
		if err == nil {
			err = checkers[r].check(i%sp.conns, &o, rows)
		}
		if err != nil {
			out[r].failed++
			if out[r].first == nil {
				out[r].first = err
			}
		}
	}
	rec.on = false
	for r := range runners {
		checkers[r] = w.newChecker()
		for i := 0; i < sp.warmup; i++ {
			step(r, i, false)
		}
		if st, ok := runners[r].(*stepper); ok {
			st.resetCounters()
		}
	}
	runtime.GC()
	type base struct {
		stats        storage.Snapshot
		hits, misses int64
	}
	before := make([]base, len(runners))
	for r, run := range runners {
		sess := run.session()
		before[r] = base{sess.Stats.Snapshot(), sess.PlanCacheHits(), sess.PlanCacheMisses()}
	}
	for lo := sp.warmup; lo < sp.warmup+sp.traceOps; lo += passChunk {
		hi := lo + passChunk
		if hi > sp.warmup+sp.traceOps {
			hi = sp.warmup + sp.traceOps
		}
		for r := range runners {
			rec.on = r == len(runners)-1
			for i := lo; i < hi; i++ {
				rec.op = int32(i)
				step(r, i, true)
			}
		}
	}
	rec.on = false
	for r, run := range runners {
		sess := run.session()
		out[r].stats = sess.Stats.Snapshot().Sub(before[r].stats)
		out[r].hits = sess.PlanCacheHits() - before[r].hits
		out[r].misses = sess.PlanCacheMisses() - before[r].misses
	}
	return out
}

// calibration holds the per-call costs that only a separate measurement can
// give from outside, each the mean over a sample of the traced operations.
type calibration struct {
	fingerprintNs float64 // fingerprint.Fingerprint of one statement text
	parseNs       float64 // parser.Parse of one statement text
	lookupNs      float64 // warm Session.PlanQuery
	coldPlanNs    float64 // Session.PlanQuery after InvalidatePlans
	// Per UDF: the whole call, its cursor query alone, and the cursor
	// (query + worktable write + FETCH of every row) alone.
	udf map[string]udfCost
}

type udfCost struct {
	callNs, queryNs, cursorNs float64
	worktable                 bool // the call wrote worktable rows
}

// statementTexts collects the distinct statement texts of the traced
// operations (prepared sources, or Exec batches), up to limit.
func statementTexts(w workload, limit int) []string {
	sp := w.spec()
	prepared := w.statements()
	seen := map[string]bool{}
	var out []string
	for i := sp.warmup; i < sp.warmup+sp.traceOps && len(out) < limit; i++ {
		o := w.op(i)
		text := o.sql
		if o.stmt >= 0 {
			text = prepared[o.stmt]
		}
		if !seen[text] {
			seen[text] = true
			out = append(out, text)
		}
	}
	return out
}

// firstSelect returns the first SELECT of a statement text (nil if none).
func firstSelect(text string) *ast.Select {
	stmts, err := parser.Parse(text)
	if err != nil {
		return nil
	}
	for _, s := range stmts {
		if qs, ok := s.(*ast.QueryStmt); ok {
			return qs.Query
		}
	}
	return nil
}

func calibrate(db *aggify.DB, w workload, st *stepper) (calibration, error) {
	const reps = 5
	cal := calibration{udf: map[string]udfCost{}}
	texts := statementTexts(w, 500)
	sess := db.Engine().NewSession()
	defer sess.Close()

	var sink uint64
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, t := range texts {
			sink += fingerprint.Fingerprint(t)
		}
	}
	cal.fingerprintNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(texts))
	_ = sink

	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, t := range texts {
			if _, err := parser.Parse(t); err != nil {
				return cal, err
			}
		}
	}
	cal.parseNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(texts))

	var selects []*ast.Select
	for _, t := range texts {
		if q := firstSelect(t); q != nil {
			selects = append(selects, q)
		}
	}
	if len(selects) > 0 {
		var cold int64
		for _, q := range selects {
			db.Engine().InvalidatePlans()
			t0 = time.Now()
			if _, err := sess.PlanQuery(q, nil); err != nil {
				return cal, err
			}
			cold += time.Since(t0).Nanoseconds()
		}
		cal.coldPlanNs = float64(cold) / float64(len(selects))

		for _, q := range selects { // fill the cache again
			if _, err := sess.PlanQuery(q, nil); err != nil {
				return cal, err
			}
		}
		t0 = time.Now()
		for r := 0; r < reps; r++ {
			for _, q := range selects {
				if _, err := sess.PlanQuery(q, nil); err != nil {
					return cal, err
				}
			}
		}
		cal.lookupNs = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(selects))
	}

	// UDF costs: the cursor query is taken from the UDF as written (the
	// first DECLARE CURSOR of udfs.sql), so it is the same query for the
	// cursor-loop workload and for the aggified one.
	cursorQueries, err := udfCursorQueries()
	if err != nil {
		return cal, err
	}
	for name, argSets := range st.udfArgs {
		cq, ok := cursorQueries[name]
		if !ok {
			continue
		}
		// Spend about 100 ms per UDF and pass: a big-loop UDF replays a
		// handful of calls, a small-loop one the whole sample.
		perCall := float64(st.udfNanos[name]) / float64(st.udfCalls[name])
		if most := int(1e8/perCall) + 1; len(argSets) > most {
			argSets = argSets[:most]
		}
		var c udfCost
		before := sess.Stats.Snapshot()
		t0 = time.Now()
		for _, args := range argSets {
			if _, err := interp.CallFunctionByName(sess, name, args...); err != nil {
				return cal, err
			}
		}
		c.callNs = float64(time.Since(t0).Nanoseconds()) / float64(len(argSets))
		c.worktable = sess.Stats.Snapshot().Sub(before).WorktableWrites > 0

		bind := func(args []sqltypes.Value) *exec.Ctx {
			return sess.Ctx(func(v string) (sqltypes.Value, bool) {
				if strings.EqualFold(v, cq.param) {
					return args[0], true
				}
				return sqltypes.Null, false
			}, nil)
		}
		t0 = time.Now()
		for _, args := range argSets {
			if _, _, err := sess.Query(cq.query, bind(args)); err != nil {
				return cal, err
			}
		}
		c.queryNs = float64(time.Since(t0).Nanoseconds()) / float64(len(argSets))

		t0 = time.Now()
		for _, args := range argSets {
			cur := engine.NewCursor("c", cq.query)
			if err := cur.Open(sess, bind(args)); err != nil {
				return cal, err
			}
			for {
				_, ok, err := cur.Fetch()
				if err != nil {
					return cal, err
				}
				if !ok {
					break
				}
			}
			cur.Close()
			cur.Deallocate()
		}
		c.cursorNs = float64(time.Since(t0).Nanoseconds()) / float64(len(argSets))
		cal.udf[name] = c
	}
	return cal, nil
}

type cursorQuery struct {
	query *ast.Select
	param string // the UDF's first parameter, which the query reads
}

// udfCursorQueries parses udfs.sql and returns each function's cursor query.
func udfCursorQueries() (map[string]cursorQuery, error) {
	stmts, err := parser.Parse(udfSource)
	if err != nil {
		return nil, err
	}
	out := map[string]cursorQuery{}
	for _, s := range stmts {
		fn, ok := s.(*ast.CreateFunction)
		if !ok || len(fn.Params) == 0 {
			continue
		}
		ast.WalkStmt(fn.Body, func(s ast.Stmt) bool {
			if dc, ok := s.(*ast.DeclareCursor); ok {
				if _, dup := out[strings.ToLower(fn.Name)]; !dup {
					out[strings.ToLower(fn.Name)] = cursorQuery{query: dc.Query, param: fn.Params[0].Name}
				}
			}
			return true
		})
	}
	return out, nil
}
