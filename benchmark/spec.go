package main

// The harness registry: every workload and metric the benchmark can emit.
// BENCHMARK.json names the same sets; bench_test.go keeps the two in step.

// metric is one reported number's name and unit.
type metric struct {
	Name string
	Unit string
}

// endToEnd lists what a user of aggifyd sees, reported with -trace 0.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"server_peak_rss_mb", "MiB"},
}

// layers are the module names self time is attributed to, in request order.
var layers = []string{"client", "wire", "server", "fingerprint", "parser", "engine", "plan", "exec", "interp", "storage", "txn"}

// perLayer lists the single-layer numbers, reported with -trace 1. Every
// workload emits all of them; a layer a workload never enters reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"client.transport_us_per_op", "us"},
		{"client.round_trips_per_op", "count"},
		{"wire.codec_us_per_op", "us"},
		{"wire.bytes_per_op", "B"},
		{"server.self_us_per_op", "us"},
		{"fingerprint.us_per_stmt", "us"},
		{"parser.us_per_stmt", "us"},
		{"engine.plan_cache_hit_share", "ratio"},
		{"engine.lookup_ns", "ns"},
		{"plan.compile_us", "us"},
		{"exec.run_us_per_op", "us"},
		{"interp.udf_self_us_per_call", "us"},
		{"interp.fetch_iters_per_op", "count"},
		{"storage.logical_reads_per_op", "count"},
		{"storage.worktable_pages_per_op", "count"},
		{"txn.commit_us", "us"},
		{"txn.conflict_share", "ratio"},
		{"wal.bytes_per_commit", "B"},
		{"wal.fsyncs_per_commit", "count"},
		{"wal.wait_durable_us", "us"},
		{"wal.recovery_ms", "ms"},
		{"core.rewrite_us_per_module", "us"},
		{"core.loops_rewritten", "count"},
		{"trace.unattributed_share", "ratio"},
		{"trace.overhead_share", "ratio"},
	}
	for _, l := range layers {
		ms = append(ms, metric{"share." + l, "ratio"})
	}
	return ms
}()

// Sizes fixed by the benchmark (BENCHMARK.json has no field for them, so
// they are constants here and in README.md).
const (
	// tpchSF is the scale factor aggifyd loads for the four read workloads
	// (15 000 orders, about 90 000 rows in all).
	tpchSF = 0.01
	// setupRepeats is how many fresh daemons one run sets up; setup_s is
	// the median over them.
	setupRepeats = 3
	// opDeadlineSeconds is the latency beyond which an operation counts as
	// failed.
	opDeadlineSeconds = 5
)
