package main

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"aggify"
	"aggify/internal/interp"
	"aggify/internal/sqltypes"
	"aggify/internal/tpch"
)

// op is one closed-loop operation: a prepared statement executed and
// fetched to exhaustion, or one Exec batch.
type op struct {
	stmt int              // index into statements(), or -1 for an Exec batch
	args []sqltypes.Value // parameters of the prepared statement
	sql  string           // batch text when stmt < 0
	kind int              // workload-defined class the checker switches on
	key  int64            // point key, window start, or item
	n    int64            // window width, or a bid's amount in cents
}

// String renders the operation as the daemon receives it (the operation
// list's byte form; bench_test.go compares two renderings per seed).
func (o op) String() string {
	if o.stmt < 0 {
		return o.sql
	}
	parts := make([]string, len(o.args))
	for i, a := range o.args {
		parts[i] = a.Display()
	}
	return fmt.Sprintf("#%d(%s)", o.stmt, strings.Join(parts, ","))
}

// workload is one traffic mix against its own fresh daemon. The seed picks
// keys, windows and the operation order; the daemon receives nothing but
// the generated statements.
type workload interface {
	spec() sizes
	// reseed fixes the operation list; prepare reseeds and also builds the
	// script and the expected answers, using an in-process database the
	// daemon never sees.
	reseed(seed int64)
	prepare(seed int64) error
	// script is executed by aggifyd before it listens (UDFs, aggregates or
	// schema); statements are prepared on every connection in order.
	script() string
	statements() []string
	// op is the i-th operation of the seeded list; connection c of C runs
	// operations c, c+C, c+2C, ...
	op(i int) op
	// newChecker returns the answer checker for one fresh database (a
	// daemon, or an in-process copy); it may keep state about that database.
	newChecker() checker
}

// checker verifies one reply. conn is the operation's connection, i mod C.
type checker interface {
	check(conn int, o *op, rows [][]sqltypes.Value) error
}

// sizes holds a workload's fixed constants.
type sizes struct {
	name     string
	conns    int  // closed-loop connections (never more than the 2 cores here)
	warmup   int  // W: operations in the untimed warm-up pass
	traceOps int  // K: operations the traced run replays
	rssOps   int  // the daemon's peak memory is read this far into the timed phase
	tpch     bool // aggifyd -tpch tpchSF
	durable  bool // aggifyd -data-dir <tmp> -wal-sync group
}

func (s sizes) spec() sizes { return s }

// workloads is the registry, in reporting order.
func workloads() []workload {
	return []workload{
		&loopWorkload{sizes: sizes{name: "loop_cursor", conns: 1, warmup: 200, traceOps: 200, rssOps: 2000, tpch: true}},
		&loopWorkload{sizes: sizes{name: "loop_aggified", conns: 1, warmup: 200, traceOps: 200, rssOps: 2000, tpch: true}, aggified: true},
		newChatty(),
		newAdhoc(),
		&oltpWorkload{sizes: sizes{name: "oltp_write", conns: 2, warmup: 1000, traceOps: 2000, rssOps: 10000, durable: true}},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.spec().name == name {
			return w, true
		}
	}
	return nil, false
}

// mix is a stateless splitmix64 hash of (seed, operation index, salt), so
// an operation is a pure function of its index and lists of any length
// agree on their common prefix.
func mix(seed int64, i int, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xD1B54A32D192ED03 + salt*0x8CB92BA72F3D8DD7
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// shuffled returns 0..n-1 in an order fixed by (seed, salt).
func shuffled(n int, seed int64, salt uint64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, i, salt) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// openTPCH opens an in-process database holding the same TPC-H data the
// daemon loads (tpch.Load is seeded independently of the benchmark seed)
// and runs script on it.
func openTPCH(script string) (*aggify.DB, error) {
	db := aggify.Open()
	if err := tpch.Load(db.Engine(), tpchSF); err != nil {
		return nil, err
	}
	if script != "" {
		if err := db.Exec(script); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// sameValue compares a reply value with the oracle's: exact for strings,
// integers and NULL, to 1e-9 relative for floats (an aggregate may sum in
// another order than the loop did).
func sameValue(got, want sqltypes.Value) bool {
	if got.IsNull() || want.IsNull() {
		return got.IsNull() && want.IsNull()
	}
	if got.Kind() == sqltypes.KindString || want.Kind() == sqltypes.KindString {
		return strings.TrimRight(got.Display(), " ") == strings.TrimRight(want.Display(), " ")
	}
	g, ok1 := got.AsFloat()
	w, ok2 := want.AsFloat()
	if !ok1 || !ok2 {
		return got.Display() == want.Display()
	}
	return math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
}

// canon renders a value for digests: floats to nine significant digits, so
// a sum taken in another order keeps its digest.
func canon(v sqltypes.Value) string {
	if v.Kind() == sqltypes.KindFloat {
		return strconv.FormatFloat(v.Float(), 'g', 9, 64)
	}
	return v.Display()
}

// digest folds a result into one number: FNV-1a over every value's
// canonical form, row and column boundaries included.
func digest(rows [][]sqltypes.Value) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		for _, v := range r {
			io.WriteString(h, canon(v))
			io.WriteString(h, "|")
		}
		io.WriteString(h, "\n")
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// loop_cursor and loop_aggified

//go:embed udfs.sql
var udfSource string

const (
	// loopWindow is the driver queries' key window: one operation makes
	// this many UDF calls, each running one small cursor loop.
	loopWindow = 50
	// q14Dates is how many distinct quarter start dates the big-loop UDF
	// is called with.
	q14Dates = 16
)

// loopDrivers are the prepared driver queries: Q2, Q13 and Q18 call a UDF
// once per key of a window (many small loops); Q14 calls one UDF that
// loops over a quarter of lineitem (one big loop). Each driver has a fixed
// set of windows that tile keys 1..domain.
var loopDrivers = []struct {
	sql    string
	udf    string
	domain int
}{
	{"select p_partkey, minCostSupp(p_partkey) from part where p_partkey between ? and ?", "mincostsupp", 2000},
	{"select c_custkey, countOrders(c_custkey) from customer where c_custkey between ? and ?", "countorders", 1500},
	{"select o_orderkey, sumQty(o_orderkey) from orders where o_orderkey between ? and ?", "sumqty", 3000},
	{"select promoRevenue(?)", "promorevenue", q14Dates},
}

// loopPattern fixes the mix at 6:6:7:1 per twenty operations, so each
// driver's share, and with it where the median and the 99th percentile
// fall, is the same on every seed: the median among the Q18 operations, the
// 99th percentile among the big-loop ones. The seed rotates the pattern and
// shuffles each driver's windows; every driver then cycles through all its
// windows, so two seeds do the same work in another order.
var loopPattern = [20]int{0, 2, 1, 0, 2, 1, 2, 0, 1, 2, 0, 2, 1, 0, 2, 1, 0, 2, 1, 3}

// windowsOf is how many windows (or dates) a driver cycles through.
func windowsOf(d int) int {
	if d == 3 {
		return q14Dates
	}
	return loopDrivers[d].domain / loopWindow
}

// loopWorkload runs the same operation list against the UDFs as written
// (cursor loops) or against what aggify.TransformSource makes of them.
type loopWorkload struct {
	sizes
	aggified bool

	rot        int     // rotation of loopPattern
	order      [][]int // [driver] its windows in this seed's order
	scriptText string
	expect     [][]sqltypes.Value // [driver][key] from the interpreted cursor-loop UDF

	rewriteMicros float64 // core.rewrite_us_per_module (aggified only)
	loopsRewrote  int     // core.loops_rewritten (aggified only)
}

func q14Date(k int64) sqltypes.Value {
	return sqltypes.NewDate(sqltypes.MustDate("1993-01-01").Int() + 90*(k-1))
}

func (w *loopWorkload) reseed(seed int64) {
	w.rot = int(mix(seed, 0, 1) % uint64(len(loopPattern)))
	w.order = make([][]int, len(loopDrivers))
	for d := range loopDrivers {
		w.order[d] = shuffled(windowsOf(d), seed, uint64(10+d))
	}
}

func (w *loopWorkload) prepare(seed int64) error {
	w.reseed(seed)
	w.scriptText = udfSource
	if w.aggified {
		start := time.Now()
		results, err := aggify.TransformSource(udfSource, aggify.TransformOptions{})
		if err != nil {
			return fmt.Errorf("aggify rewrite: %w", err)
		}
		w.rewriteMicros = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(results))
		var parts []string
		w.loopsRewrote = 0
		for _, r := range results {
			if len(r.Skipped) > 0 {
				return fmt.Errorf("aggify skipped a loop of %s: %v", r.Name, r.Skipped)
			}
			w.loopsRewrote += r.LoopsTransformed
			parts = append(parts, r.AggregateSources...)
			parts = append(parts, r.RewrittenSource)
		}
		w.scriptText = strings.Join(parts, "\nGO\n")
	}
	var err error
	w.expect, err = loopOracle()
	return err
}

// loopExpect caches loopOracle: the answers depend on neither the seed nor
// the variant, so loop_cursor and loop_aggified share them within a process.
var loopExpect [][]sqltypes.Value

// loopOracle answers every driver on every key: the untouched cursor-loop
// source run by the tree-walking interpreter, so it shares neither the
// rewrite nor the compiled tier with what the daemon executes.
func loopOracle() ([][]sqltypes.Value, error) {
	if loopExpect != nil {
		return loopExpect, nil
	}
	db, err := openTPCH(udfSource)
	if err != nil {
		return nil, err
	}
	expect := make([][]sqltypes.Value, len(loopDrivers))
	for d, drv := range loopDrivers {
		expect[d] = make([]sqltypes.Value, drv.domain+1)
		for k := int64(1); k <= int64(drv.domain); k++ {
			arg := sqltypes.NewInt(k)
			if d == 3 {
				arg = q14Date(k)
			}
			v, err := interp.CallFunctionInterpreted(db.Session(), drv.udf, arg)
			if err != nil {
				return nil, fmt.Errorf("oracle %s(%d): %w", drv.udf, k, err)
			}
			expect[d][k] = v
		}
	}
	loopExpect = expect
	return expect, nil
}

func (w *loopWorkload) script() string { return w.scriptText }

func (w *loopWorkload) statements() []string {
	out := make([]string, len(loopDrivers))
	for i, d := range loopDrivers {
		out[i] = d.sql
	}
	return out
}

func (w *loopWorkload) op(i int) op {
	i += w.rot
	pos := i % len(loopPattern)
	d := loopPattern[pos]
	// nth counts this driver's operations before this one.
	nth := 0
	for p, dd := range loopPattern {
		if dd == d {
			nth += i / len(loopPattern)
			if p < pos {
				nth++
			}
		}
	}
	win := int64(w.order[d][nth%len(w.order[d])])
	if d == 3 {
		return op{stmt: d, kind: d, key: win + 1, n: 1, args: []sqltypes.Value{q14Date(win + 1)}}
	}
	lo := win*loopWindow + 1
	return op{stmt: d, kind: d, key: lo, n: loopWindow,
		args: []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(lo + loopWindow - 1)}}
}

func (w *loopWorkload) newChecker() checker { return w }

func (w *loopWorkload) check(_ int, o *op, rows [][]sqltypes.Value) error {
	if int64(len(rows)) != o.n {
		return fmt.Errorf("%s: %d rows, want %d", o, len(rows), o.n)
	}
	if o.kind == 3 {
		if !sameValue(rows[0][0], w.expect[3][o.key]) {
			return fmt.Errorf("%s: got %s, cursor loop gives %s", o, rows[0][0].Display(), w.expect[3][o.key].Display())
		}
		return nil
	}
	for _, r := range rows {
		k, _ := r[0].AsInt()
		if k < o.key || k >= o.key+o.n {
			return fmt.Errorf("%s: key %d outside the window", o, k)
		}
		if !sameValue(r[1], w.expect[o.kind][k]) {
			return fmt.Errorf("%s: key %d got %s, cursor loop gives %s", o, k, r[1].Display(), w.expect[o.kind][k].Display())
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// client_chatty and client_adhoc

// keyedStmt is a statement over one key column: a point lookup, or a window
// of width keys starting at the key.
type keyedStmt struct {
	sql    string // one '?' for a point lookup, two for a window
	domain int    // keys (or window starts) 1..domain
	width  int    // 0 for a point lookup
}

func (s keyedStmt) args(key int64) []sqltypes.Value {
	if s.width == 0 {
		return []sqltypes.Value{sqltypes.NewInt(key)}
	}
	return []sqltypes.Value{sqltypes.NewInt(key), sqltypes.NewInt(key + int64(s.width) - 1)}
}

// keyedOracle runs every statement on every key of its domain through an
// in-process prepared statement and keeps the digests.
func keyedOracle(stmts []keyedStmt) ([][]uint64, error) {
	db, err := openTPCH("")
	if err != nil {
		return nil, err
	}
	conn := db.Connect(aggify.LAN)
	defer conn.Close()
	out := make([][]uint64, len(stmts))
	for i, s := range stmts {
		ps, err := conn.Prepare(s.sql)
		if err != nil {
			return nil, fmt.Errorf("oracle prepare %q: %w", s.sql, err)
		}
		out[i] = make([]uint64, s.domain+1)
		for k := int64(1); k <= int64(s.domain); k++ {
			rs, err := ps.Query(s.args(k)...)
			if err != nil {
				return nil, fmt.Errorf("oracle %q key %d: %w", s.sql, k, err)
			}
			var rows [][]sqltypes.Value
			for rs.Next() {
				rows = append(rows, rs.Row())
			}
			if err := rs.Err(); err != nil {
				return nil, err
			}
			out[i][k] = digest(rows)
		}
	}
	return out, nil
}

// keyedWorkload is the part client_chatty and client_adhoc share: the
// statement table, its oracle and the digest check.
type keyedWorkload struct {
	sizes
	stmts  []keyedStmt
	seed   int64
	expect [][]uint64
}

func (w *keyedWorkload) reseed(seed int64) { w.seed = seed }

func (w *keyedWorkload) prepare(seed int64) error {
	w.reseed(seed)
	var err error
	w.expect, err = keyedOracle(w.stmts)
	return err
}

func (w *keyedWorkload) script() string      { return "" }
func (w *keyedWorkload) newChecker() checker { return w }

func (w *keyedWorkload) check(_ int, o *op, rows [][]sqltypes.Value) error {
	if got, want := digest(rows), w.expect[o.kind][o.key]; got != want {
		return fmt.Errorf("%s: digest %016x over %d rows, want %016x", o, got, len(rows), want)
	}
	return nil
}

// chattyProgramLen is one client program run: an outer window query and one
// point query per row it returned.
const chattyProgramLen = 17

// chattyWorkload replays Fig 10(b)-style original client programs: an outer
// query, then a point query per row, every statement prepared once and its
// rows pulled with Fetch. Twelve statements, so the plan cache always hits.
type chattyWorkload struct{ keyedWorkload }

func newChatty() *chattyWorkload {
	w := &chattyWorkload{}
	w.sizes = sizes{name: "client_chatty", conns: 2, warmup: 4000, traceOps: 8000, rssOps: 100000, tpch: true}
	w.stmts = []keyedStmt{
		// program 0: parts of a window, then their suppliers and prices
		{"select p_partkey from part where p_partkey between ? and ?", 2000 - 16, 16},
		{"select ps_suppkey, ps_supplycost from partsupp where ps_partkey = ?", 2000, 0},
		{"select s_name, s_acctbal from supplier where s_suppkey = ?", 100, 0},
		{"select p_name, p_retailprice from part where p_partkey = ?", 2000, 0},
		{"select ps_availqty from partsupp where ps_partkey = ?", 2000, 0},
		// program 1: customers of a window, then their orders and lines
		{"select c_custkey from customer where c_custkey between ? and ?", 1500 - 16, 16},
		{"select o_orderkey, o_totalprice from orders where o_custkey = ?", 1500, 0},
		{"select l_linenumber, l_quantity from lineitem where l_orderkey = ?", 15000, 0},
		{"select c_name, c_acctbal from customer where c_custkey = ?", 1500, 0},
		{"select o_custkey, o_orderdate from orders where o_orderkey = ?", 15000, 0},
		{"select l_partkey, l_extendedprice from lineitem where l_orderkey = ?", 15000, 0},
		{"select o_orderstatus, o_comment from orders where o_orderkey = ?", 15000, 0},
	}
	return w
}

func (w *chattyWorkload) statements() []string {
	out := make([]string, len(w.stmts))
	for i, s := range w.stmts {
		out[i] = s.sql
	}
	return out
}

func (w *chattyWorkload) op(i int) op {
	run, pos := i/chattyProgramLen, i%chattyProgramLen
	outer := 0
	inner := []int{1, 2, 3, 4}
	if run%2 == 1 {
		outer = 5
		inner = []int{6, 7, 8, 9, 10, 11}
	}
	s := outer
	if pos > 0 {
		s = inner[(pos-1)%len(inner)]
	}
	// The outer query's window is drawn per program run; an inner query
	// looks up a key drawn per operation, as if read from the outer rows.
	salt, idx := uint64(3), run
	if pos > 0 {
		salt, idx = 4, i
	}
	key := int64(1 + mix(w.seed, idx, salt)%uint64(w.stmts[s].domain))
	return op{stmt: s, kind: s, key: key, args: w.stmts[s].args(key)}
}

// adhocWorkload sends one-statement Exec batches with the literal inlined:
// eight shapes for the fingerprinter, about 24 600 distinct texts (96x the
// 256-entry text-keyed plan cache) for the planner.
type adhocWorkload struct{ keyedWorkload }

func newAdhoc() *adhocWorkload {
	w := &adhocWorkload{}
	w.sizes = sizes{name: "client_adhoc", conns: 2, warmup: 3000, traceOps: 6000, rssOps: 100000, tpch: true}
	w.stmts = []keyedStmt{
		{"select o_custkey, o_totalprice from orders where o_orderkey = ?", 6000, 0},
		{"select count(*), sum(l_quantity) from lineitem where l_orderkey = ?", 6000, 0},
		{"select l_partkey, l_extendedprice from lineitem where l_orderkey = ? and l_linenumber = 1", 6000, 0},
		{"select c_name, c_acctbal from customer where c_custkey = ?", 1500, 0},
		{"select ps_suppkey, ps_supplycost from partsupp where ps_partkey = ?", 2000, 0},
		{"select s_name, s_nation from supplier where s_suppkey = ?", 100, 0},
		{"select p_name, p_type from part where p_partkey = ?", 2000, 0},
		{"select o_orderkey, o_orderdate from orders where o_custkey = ?", 1000, 0},
	}
	return w
}

func (w *adhocWorkload) statements() []string { return nil }

func (w *adhocWorkload) op(i int) op {
	s := i % len(w.stmts)
	key := int64(1 + mix(w.seed, i, 5)%uint64(w.stmts[s].domain))
	sql := strings.Replace(w.stmts[s].sql, "?", strconv.FormatInt(key, 10), 1)
	return op{stmt: -1, sql: sql, kind: s, key: key}
}

// ---------------------------------------------------------------------------
// oltp_write

const (
	oltpItems = 1000
	// oltpReadEvery makes every tenth operation of a connection a range
	// read; oltpReadWidth is the read's item window.
	oltpReadEvery = 10
	oltpReadWidth = 20
)

// oltpWorkload is an auction: a bid is BEGIN; INSERT bid; UPDATE item;
// COMMIT in one batch, and every tenth operation of a connection reads the
// bids of a window of items back. Connection c of C only bids on items
// congruent to c, so no two transactions write the same row and none fails
// on a write conflict.
type oltpWorkload struct {
	sizes
	seed       int64
	scriptText string
}

// oltpChecker is what each connection of one database has had acknowledged:
// per connection and item, the count and amount (in cents) of its committed
// bids.
type oltpChecker struct {
	count [][]int64
	cents [][]int64
}

func (w *oltpWorkload) reseed(seed int64) { w.seed = seed }

func (w *oltpWorkload) prepare(seed int64) error {
	w.reseed(seed)
	var b strings.Builder
	b.WriteString("create table items (i_id int, i_name varchar(32), i_price decimal(15,2), i_nbids int, i_maxbid decimal(15,2));\n")
	b.WriteString("create table bids (b_id int, b_item int, b_conn int, b_amount decimal(15,2));\n")
	b.WriteString("create index items_pk on items(i_id);\n")
	b.WriteString("create index bids_item on bids(b_item) using ordered;\n")
	for i := 1; i <= oltpItems; i++ {
		if i%500 == 1 {
			b.WriteString("insert into items values ")
		}
		price := 1 + mix(seed, i, 6)%50000
		fmt.Fprintf(&b, "(%d, 'item %d', %d.%02d, 0, 0)", i, i, price/100, price%100)
		if i%500 == 0 {
			b.WriteString(";\n")
		} else {
			b.WriteString(", ")
		}
	}
	w.scriptText = b.String()
	return nil
}

func (w *oltpWorkload) script() string { return w.scriptText }

func (w *oltpWorkload) statements() []string {
	return []string{"select b_id, b_conn, b_amount from bids where b_item between ? and ?"}
}

// item picks the item of the i-th operation, congruent to its connection.
func (w *oltpWorkload) item(i int) int64 {
	c := i % w.conns
	slots := oltpItems / w.conns
	return int64(w.conns)*int64(mix(w.seed, i, 7)%uint64(slots)) + int64(c) + 1
}

func (w *oltpWorkload) op(i int) op {
	if (i/w.conns)%oltpReadEvery == oltpReadEvery-1 {
		// Read around the item this connection bid on last.
		lo := w.item(i-w.conns) - oltpReadWidth/2
		if lo < 1 {
			lo = 1
		}
		return op{stmt: 0, kind: 1, key: lo, n: oltpReadWidth,
			args: []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(lo + oltpReadWidth - 1)}}
	}
	item := w.item(i)
	cents := int64(100 + mix(w.seed, i, 8)%100000)
	sql := fmt.Sprintf("begin transaction; insert into bids values (%d, %d, %d, %d.%02d); "+
		"update items set i_nbids = i_nbids + 1, i_maxbid = %d.%02d where i_id = %d; commit;",
		i, item, i%w.conns, cents/100, cents%100, cents/100, cents%100, item)
	return op{stmt: -1, sql: sql, kind: 0, key: item, n: cents}
}

func (w *oltpWorkload) newChecker() checker {
	k := &oltpChecker{count: make([][]int64, w.conns), cents: make([][]int64, w.conns)}
	for c := 0; c < w.conns; c++ {
		k.count[c] = make([]int64, oltpItems+oltpReadWidth+1)
		k.cents[c] = make([]int64, oltpItems+oltpReadWidth+1)
	}
	return k
}

func (k *oltpChecker) check(conn int, o *op, rows [][]sqltypes.Value) error {
	count, cents := k.count[conn], k.cents[conn]
	if o.kind == 0 {
		count[o.key]++
		cents[o.key] += o.n
		return nil
	}
	// The other connection commits while this one reads, so only this
	// connection's own bids have a known answer: every acknowledged one must
	// be there, and nothing else under its name.
	var wantCount, wantCents, gotCount, gotCents int64
	for it := o.key; it < o.key+o.n; it++ {
		wantCount += count[it]
		wantCents += cents[it]
	}
	for _, r := range rows {
		if c, _ := r[1].AsInt(); int(c) != conn {
			continue
		}
		amt, _ := r[2].AsFloat()
		gotCount++
		gotCents += int64(math.Round(amt * 100))
	}
	if gotCount != wantCount || gotCents != wantCents {
		return fmt.Errorf("%s: %d own bids worth %d cents, acknowledged %d worth %d", o, gotCount, gotCents, wantCount, wantCents)
	}
	return nil
}

// totals returns the bids every connection has had acknowledged, for the
// check after the crash.
func (k *oltpChecker) totals() (count, cents int64) {
	for c := range k.count {
		for it := range k.count[c] {
			count += k.count[c][it]
			cents += k.cents[c][it]
		}
	}
	return count, cents
}
