package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aggify"
	"aggify/internal/storage"
	"aggify/internal/wal"
	"aggify/internal/wire"
)

// statTotals is the sum of aggify_stat_statements over everything but the
// scrape itself.
type statTotals struct {
	reads, hits, misses float64
}

const statQuery = "select sum(logical_reads), sum(plan_cache_hits), sum(plan_cache_misses) " +
	"from aggify_stat_statements where query not like '%aggify_stat_statements%'"

func (s *session) statStatements() (statTotals, error) {
	out, err := s.conns[0].ExecResults(statQuery)
	if err != nil {
		return statTotals{}, err
	}
	var t statTotals
	if len(out.Sets) == 1 && len(out.Sets[0].Rows) == 1 {
		r := out.Sets[0].Rows[0]
		t.reads, _ = r[0].AsFloat()
		t.hits, _ = r[1].AsFloat()
		t.misses, _ = r[2].AsFloat()
	}
	return t, nil
}

// traceFile is what out/<workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"operations"`
	// SelfNanos is the summed self time per span name over the traced pass.
	SelfNanos map[string]int64 `json:"self_ns_by_span"`
	// Moved lists the self time re-attributed between layers on the strength
	// of a separate measurement, because the boundary is inside one public
	// call and cannot be timed around from outside.
	Moved []movedTime `json:"reattributed"`
	// LayerNanos is the per-layer self time after that, per operation, with
	// the transport time measured over TCP added to client.
	LayerNanos map[string]float64 `json:"layer_ns_per_op"`
	Dominant   string             `json:"dominant_layer"`
	Spans      []span             `json:"spans"`
}

type movedTime struct {
	From  string  `json:"from"`
	To    string  `json:"to"`
	Nanos float64 `json:"ns"`
	Basis string  `json:"basis"`
}

// tcpObservation is what the traced run learns from a live server: the K
// operations over the workload's own connections, the same count over one
// connection alone, the wire meter, and the server's own counters as the
// difference between a scrape before and a scrape after.
type tcpObservation struct {
	tcp, solo  driveResult
	meter      wire.Meter
	prom       map[string]float64 // /metrics deltas (empty without -http)
	stat       statTotals         // aggify_stat_statements delta
	recoveryMs float64
}

// observe runs the traced run's TCP part on a warmed session. scrape reads
// the server's /metrics.
func (s *session) observe(w workload, scrape func() (map[string]float64, error)) (tcpObservation, error) {
	sp := w.spec()
	obs := tcpObservation{prom: map[string]float64{}}
	stat0, err := s.statStatements()
	if err != nil {
		return obs, fmt.Errorf("aggify_stat_statements: %w", err)
	}
	prom0, err := scrape()
	if err != nil {
		return obs, fmt.Errorf("/metrics: %w", err)
	}
	for _, c := range s.conns {
		c.ResetMeter()
	}
	obs.tcp = s.drive(w, pass{from: sp.warmup, count: sp.traceOps, conns: sp.conns})
	for _, c := range s.conns {
		obs.meter.Add(c.Meter())
	}
	prom1, err := scrape()
	if err != nil {
		return obs, fmt.Errorf("/metrics: %w", err)
	}
	stat1, err := s.statStatements()
	if err != nil {
		return obs, fmt.Errorf("aggify_stat_statements: %w", err)
	}
	for name, v := range prom1 {
		obs.prom[name] = v - prom0[name]
	}
	obs.stat = statTotals{stat1.reads - stat0.reads, stat1.hits - stat0.hits, stat1.misses - stat0.misses}
	// The transport's cost is the client-observed time of one connection
	// alone, less the server's part of it: with two connections the
	// difference would also hold the time one waited for the other. A
	// read-only workload replays the same K operations for it, a writing
	// one the next K.
	obs.solo = obs.tcp
	if sp.conns > 1 {
		from := sp.warmup
		if sp.durable {
			from += sp.traceOps
		}
		obs.solo = s.drive(w, pass{from: from, count: sp.traceOps, conns: 1})
	}
	return obs, nil
}

// runTrace is one -trace 1 run. It measures K operations four ways:
//
//  1. over TCP against a fresh daemon, for the client-observed time, the
//     wire meter and the daemon's own counters (observe);
//  2. in-process through server.Backend, for the exact I/O counts and the
//     server-side time of the real path;
//  3. in-process through the stepwise driver with recording off;
//  4. the same with recording on, which yields the spans.
//
// Each in-process pass has its own database and warms up with the same W
// operations the daemon saw, so all four start from the same state.
func (e *env) runTrace(w workload, seed int64) (*result, error) {
	if err := w.prepare(seed); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.spec().name, err)
	}
	res := &result{Correct: true, Metrics: map[string]value{}}
	s, err := e.setUp(w, true)
	if err != nil {
		return nil, err
	}
	obs, err := s.observe(w, s.d.scrape)
	if err != nil {
		s.close()
		return nil, err
	}
	if obs.recoveryMs, err = e.finish(w, s, res); err != nil {
		return nil, err
	}
	return res, e.layerResult(w, seed, obs, res)
}

// layerResult runs the in-process passes and fills in every per-layer
// metric from them and from the TCP observation.
func (e *env) layerResult(w workload, seed int64, obs tcpObservation, res *result) error {
	sp := w.spec()
	K := float64(sp.traceOps)
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{0, m.Unit}
	}
	tcp, solo, meter, recoveryMs := obs.tcp, obs.solo, obs.meter, obs.recoveryMs
	res.Attempted, res.Failed = tcp.attempted, tcp.failed
	if sp.conns > 1 {
		res.Attempted, res.Failed = res.Attempted+solo.attempted, res.Failed+solo.failed
	}
	if res.Failed > 0 {
		res.fail("over TCP %d of %d operations failed, first: %v, %v", res.Failed, res.Attempted, tcp.firstErr, solo.firstErr)
	}
	if len(solo.latencies) == 0 {
		return fmt.Errorf("%s: no operation succeeded over TCP", sp.name)
	}
	tcpNanos := make([]int64, len(solo.latencies))
	for i, ms := range solo.latencies {
		tcpNanos[i] = int64(ms * 1e6)
	}
	prom := func(name string) float64 { return obs.prom[name] }

	// 2-4. The in-process passes, interleaved.
	var dbs []*aggify.DB
	defer func() {
		for _, db := range dbs {
			db.Engine().CloseData()
		}
	}()
	for len(dbs) < 3 {
		e.n++
		db, err := openInproc(w, filepath.Join(e.tmp, fmt.Sprintf("%s-%d.data", sp.name, e.n)))
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	rec := newRecorder(false, sp.traceOps*spansPerOp(w))
	direct, err := newBackendRunner(dbs[0], w)
	if err != nil {
		return err
	}
	plain, err := newStepper(dbs[1], w, newRecorder(false, 0))
	if err != nil {
		return err
	}
	st, err := newStepper(dbs[2], w, rec)
	if err != nil {
		return err
	}
	passes := runPasses(w, []opRunner{direct, plain, st}, rec)
	backend, untraced, traced := passes[0], passes[1], passes[2]
	for _, p := range passes {
		res.Attempted += sp.traceOps
		res.Failed += p.failed
		if p.failed > 0 {
			res.fail("in-process %d operations failed, first: %v", p.failed, p.first)
		}
	}
	cal, err := calibrate(dbs[2], w, st)
	if err != nil {
		return err
	}

	// Exact counts, and the daemon's view of the same ones.
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("client.round_trips_per_op", float64(meter.RoundTrips)/K)
	set("wire.bytes_per_op", float64(meter.TotalBytes())/K)
	set("storage.logical_reads_per_op", float64(backend.stats.LogicalReads)/K)
	set("storage.worktable_pages_per_op", float64(backend.stats.WorktableBytes)/storage.DefaultPageSize/K)
	set("interp.fetch_iters_per_op", float64(backend.stats.WorktableReads)/K)
	if n := backend.hits + backend.misses; n > 0 {
		set("engine.plan_cache_hit_share", float64(backend.hits)/float64(n))
	}
	if !sp.durable {
		// Reads and plan-cache outcomes of a read-only workload do not
		// depend on timing, so the daemon must report what the in-process
		// session counted. (With writers, version chains and the replanning
		// that table growth triggers depend on the interleaving.)
		d := obs.stat
		if sp.conns > 1 {
			// Which texts the LRU plan cache still holds depends on the
			// order two connections' requests arrive in.
			d.hits, d.misses = float64(backend.hits), float64(backend.misses)
		}
		if int64(d.reads) != backend.stats.LogicalReads || int64(d.hits) != backend.hits || int64(d.misses) != backend.misses {
			res.fail("aggify_stat_statements on the daemon counts %v reads, %v plan hits, %v misses; the in-process session counted %d, %d, %d",
				d.reads, d.hits, d.misses, backend.stats.LogicalReads, backend.hits, backend.misses)
		}
	}
	switch lw, isLoop := w.(*loopWorkload); {
	case isLoop && lw.aggified:
		set("core.rewrite_us_per_module", lw.rewriteMicros)
		set("core.loops_rewritten", float64(lw.loopsRewrote))
		if backend.stats.WorktableWrites != 0 {
			res.fail("the aggified UDFs wrote %d worktable rows; the rewrite must leave none", backend.stats.WorktableWrites)
		}
	case isLoop:
		if backend.stats.WorktableWrites == 0 {
			res.fail("the cursor-loop UDFs wrote no worktable rows")
		}
	}

	// The daemon's transaction and WAL counters.
	if commits := prom("aggifyd_txn_commits_total"); commits > 0 {
		set("txn.conflict_share", prom("aggifyd_txn_conflicts_total")/commits)
	}
	if records := prom("aggifyd_wal_records_total"); records > 0 {
		set("wal.bytes_per_commit", prom("aggifyd_wal_bytes_total")/records)
		set("wal.fsyncs_per_commit", prom("aggifyd_wal_fsyncs_total")/records)
		us, err := e.waitDurableMicros(int(prom("aggifyd_wal_bytes_total") / records))
		if err != nil {
			return err
		}
		set("wal.wait_durable_us", us)
	}
	set("wal.recovery_ms", recoveryMs)

	// Times.
	self := selfTimes(rec.spans)
	layer := map[string]float64{}
	for name, ns := range self {
		layer[layerOf(name)] += float64(ns)
	}
	var moved []movedTime
	move := func(from, to string, ns, limit float64, basis string) {
		ns = math.Max(0, math.Min(ns, limit))
		if ns > 0 {
			layer[from] -= ns
			layer[to] += ns
			moved = append(moved, movedTime{from, to, ns, basis})
		}
	}
	move("engine", "fingerprint", float64(st.stmtRecs)*cal.fingerprintNs, float64(self["engine.stmt_begin"]),
		"Session.BeginStmt fingerprints the statement: calls x fingerprint.Fingerprint alone")
	move("engine", "plan", float64(st.planMiss)*(cal.coldPlanNs-cal.lookupNs), float64(self["engine.plan"]),
		"a plan-cache miss compiles inside Session.PlanQuery: misses x (cold PlanQuery - warm PlanQuery)")
	var udfCalls, udfSelf float64
	for name, c := range cal.udf {
		ns := float64(st.udfNanos[name])
		inner := c.queryNs
		if c.worktable {
			inner = c.cursorNs
			move("interp", "storage", ns*(c.cursorNs-c.queryNs)/c.callNs, ns,
				name+": worktable write and read-back = (cursor OPEN+FETCH all - its query alone) / whole call")
		}
		move("interp", "exec", ns*c.queryNs/c.callNs, ns, name+": the cursor's query alone / whole call")
		udfCalls += float64(st.udfCalls[name])
		udfSelf += float64(st.udfCalls[name]) * math.Max(0, c.callNs-inner)
	}
	if udfCalls > 0 {
		set("interp.udf_self_us_per_call", udfSelf/udfCalls/1e3)
	}
	wireNanos := layer["wire"]
	// Passes are compared operation by operation where they ran the same
	// ones, and as trimmed means: a burst of interference lands on one
	// pass's operations, not on the same operations of the next.
	backendNs := trimmedMean(backend.nanos)
	transport := trimmedMean(tcpNanos) - backendNs - wireNanos/K
	if !sp.durable && len(tcpNanos) == len(backend.nanos) {
		// One connection ran the very same operations in the same order.
		transport = trimmedMean(minus(tcpNanos, backend.nanos)) - wireNanos/K
	}
	layer["client"] += math.Max(0, transport) * K

	set("client.transport_us_per_op", transport/1e3)
	set("wire.codec_us_per_op", wireNanos/K/1e3)
	set("server.self_us_per_op", layer["server"]/K/1e3)
	set("fingerprint.us_per_stmt", cal.fingerprintNs/1e3)
	set("parser.us_per_stmt", cal.parseNs/1e3)
	set("engine.lookup_ns", cal.lookupNs)
	set("plan.compile_us", cal.coldPlanNs/1e3)
	set("exec.run_us_per_op", float64(self["exec.run"])/K/1e3)
	var commits, commitNanos float64
	for _, s := range rec.spans {
		if s.Name == "txn.commit" {
			commits++
			commitNanos += float64(s.End - s.Start)
		}
	}
	if commits > 0 {
		set("txn.commit_us", commitNanos/commits/1e3)
	}
	// The stepwise driver's server-side steps stand for one Backend call;
	// how far apart the two are is what the spans cannot account for.
	unattributed := math.Abs(trimmedMean(minus(untraced.server, backend.nanos))) / backendNs
	set("trace.unattributed_share", unattributed)
	set("trace.overhead_share", trimmedMean(minus(traced.nanos, untraced.nanos))/trimmedMean(untraced.nanos))
	if unattributed > 0.15 {
		res.fail("trace.unattributed_share is %.3f, over 0.15: the stepwise driver no longer follows server.Backend", unattributed)
	}

	var total float64
	for _, l := range layers {
		total += math.Max(0, layer[l])
	}
	dominant := ""
	perOp := map[string]float64{}
	for _, l := range layers {
		v := math.Max(0, layer[l])
		set("share."+l, v/total)
		perOp[l] = v / K
		if dominant == "" || v > layer[dominant] {
			dominant = l
		}
	}
	for l := range layer {
		if _, known := perOp[l]; !known {
			return fmt.Errorf("span layer %q is not in the layer registry", l)
		}
	}

	out := traceFile{sp.name, seed, sp.traceOps, self, moved, perOp, dominant, rec.spans}
	dir := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, sp.name+".trace.json"), data, 0o644); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("%s: dominant layer %s; spans in benchmark/out/%s.trace.json", sp.name, dominant, sp.name))
	return nil
}

// minus pairs two passes operation by operation: a[i] - b[i]. The passes ran
// the same operations within a chunk of each other, so the difference is
// free of the operation mix and of slow drift.
func minus(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// trimmedMean is the mean of the values between the 5th and the 95th
// percentile.
func trimmedMean(vs []int64) float64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	s = s[len(s)/20 : len(s)-len(s)/20]
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// spansPerOp sizes the span slice: the fixed steps of one operation plus
// one span per UDF call of a loop driver.
func spansPerOp(w workload) int {
	if _, ok := w.(*loopWorkload); ok {
		return loopWindow + 24
	}
	return 24
}

// waitDurableMicros times Append + WaitDurable of one commit-sized record on
// a scratch log with the workload's flush policy: the WAL's part of a
// commit, which inside the engine hides under Session.CommitTxn.
func (e *env) waitDurableMicros(payload int) (float64, error) {
	e.n++
	dir := filepath.Join(e.tmp, fmt.Sprintf("scratch-wal-%d", e.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	log, err := wal.OpenLog(dir, wal.SyncGroup)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	const n = 200
	buf := make([]byte, payload)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		lsn, err := log.Append(buf)
		if err == nil {
			err = log.WaitDurable(lsn)
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n / 1e3, nil
}
