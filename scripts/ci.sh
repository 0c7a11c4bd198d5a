#!/bin/sh
# The full CI gauntlet. This script is its one definition: `make ci` and the
# CI workflow run it. Its stages, in order:
#
#   gofmt, go vet, static analyzers (when installed), go build, go test -race
#   guards: plan cache, filtered scan, correlated apply, predicate kernels,
#     access paths, Aggify+ rules, value layout
#   wire decoders fuzz (time-boxed), the benchmark harness's own module
#   smokes: aggifyd debug endpoint, system catalog over TCP, fingerprint
#     stats, kill-and-recover
#   applicability coverage ratchet, explain-analyze and rewrite-trace goldens
#
# No stage compares absolute times, which drift with the host: the
# same-process speedup floors (TestSameProcessSpeedups) run inside go test,
# and end-to-end performance is measured by the repository benchmark
# (BENCHMARK.json) in alternating parent/change pairs.
#
# Each stage reports its wall time so slow stages are obvious in CI logs.
set -eu
cd "$(dirname "$0")/.."

ci_start="$(date +%s)"
stage_start=""
stage_name=""

# stage NAME: close out the previous stage (printing its wall time) and
# open a new one.
stage() {
	now="$(date +%s)"
	if [ -n "$stage_name" ]; then
		echo "   -- ${stage_name}: $((now - stage_start))s"
	fi
	stage_name="$1"
	stage_start="$now"
	echo "== $1"
}

stage "gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

stage "go vet"
go vet ./...

stage "static analyzers (staticcheck, govulncheck)"
# Optional analyzers: run when installed, otherwise skip LOUDLY. Nothing
# installs them: .github/workflows/ci.yml sets up Go only, so this stage is
# skipped in CI as well as in local checkouts without them, and no analyzer
# reports dead code or known vulnerabilities there.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "WARNING: staticcheck not installed - stage SKIPPED"
	echo "WARNING: install with: go install honnef.co/go/tools/cmd/staticcheck@latest"
fi
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
else
	echo "WARNING: govulncheck not installed - stage SKIPPED"
	echo "WARNING: install with: go install golang.org/x/vuln/cmd/govulncheck@latest"
fi

stage "go build"
go build ./...

stage "go test -race"
go test -race ./...

stage "plan-cache guard (a warm lookup by AST node must not allocate; re-parsed text hits its entry)"
go test -count=1 -run 'TestPlanCacheWarmZeroAllocs|TestPlanCacheWarmHitSharedText' ./internal/engine ./internal/interp

stage "filtered-scan guard (a rejected row must not allocate: same count over 1 000 and 50 000 rows; column chunks reject what the row scan rejects, under writers, -race)"
# A scan with choose_access_path on rejects rows from typed column chunks
# without loading them: the same rows, order, errors and logical reads as
# the row scan with the rule off, at fresh, old and in-transaction
# snapshots between random writes; no chunk rejects with the rule off; a
# warm chunked scan allocates nothing; 8 sessions count right while a
# writer commits; date strings bind as dates once, unparseable ones stay
# unknown.
go test -count=1 -run TestFilteredScanAllocsIndependentOfTableSize ./internal/engine
go test -count=1 -run 'TestChunkedScanDifferential|TestChunkedScanFollowsAccessPathRule|TestDateStringOperandParsedOnce' ./internal/engine
go test -count=1 -run 'TestChunkedCursorDifferential|TestChunkedCursorWarmAllocs' ./internal/storage
go test -race -count=1 -run TestChunkedScanConcurrentWriter ./internal/engine

stage "correlated-apply guard (subquery trees re-opened, not rebuilt; shared plan under -race)"
# A correlated subquery builds its operator tree, aggregates and compiled
# aggregate machine once per execution and re-opens them per outer row:
# the per-row allocation slope stays at half of rebuilding, every operator
# and aggregate answers a re-Open as a fresh instance does, and one cached
# plan run by 8 sessions at once gives each the single-session answer.
go test -count=1 -run 'TestCorrelatedSubqueryAllocsPerOuterRow|TestCorrelatedSubqueryShapes|TestNullInEmptySubquery|TestNativeAggregateResetEqualsNew' .
go test -count=1 -run 'TestOperatorsReopen|TestAggregatorResetEqualsNew|TestCtxIdleTrees' ./internal/exec ./internal/interp
go test -race -count=1 -run TestCorrelatedSubquerySharedPlanConcurrentSessions .

stage "predicate kernels (differential vs the generic closure; one plan, 8 sessions, -race; panic containment)"
go test -count=1 -run 'TestKernel|TestScanFilterDefers' ./internal/plan
go test -race -count=1 -run TestBoundPredicateSharedPlanConcurrentSessions ./internal/engine
go test -race -count=1 -run 'TestPanicContainedPerConnection|TestTraceFlaggedFrameRejected' ./internal/server

stage "access paths (BETWEEN differential, seek operand parity, nested bodies, join chains, sort-once build, DML seeks, statistics drift)"
# A BETWEEN or comparison on an indexed column range-seeks: same rows, same
# order and same error as the scan; operands that could raise stay in the
# filter; the sort-once index build equals the index grown row by row.
# Nested query bodies (subqueries, EXISTS, CTEs, a procedural SET, an
# inlined UDF) seek only through choose_access_path, keyed by an outer
# column when one is fixed, with the scan's rows. A join over a join
# resolves its qualified columns and hash-joins, reading each table once.
# UPDATE and DELETE seek their rows the same way and change what the scan
# would. Statistics and cached plans are rebuilt once a tenth of the table
# drifted, and CREATE INDEX drops the cached statistics.
go test -count=1 -run 'TestBetweenRangeSeekDifferential|TestSeekOperandErrorParity|TestNestedBodiesChooseAccess|TestCompiledRoutineFollowsSessionRules|TestJoinChainHashJoins|TestCommaListJoinUnitColumns|TestDMLRowSourceDifferential|TestUpdateSeeksOneRow|TestPlanCacheStatsDriftReplan|TestCreateIndexRefreshesStatistics' ./internal/engine
go test -count=1 -run 'TestCreateIndexBuildMatchesIncremental|TestSeekAllocs|TestStatisticsReuseWithinDrift|TestCreateIndexDropsCachedStatistics|TestHistogramEquiDepth' ./internal/storage

stage "Aggify+ rules (inline_udf, decorrelate)"
# inline_udf runs each loop-free UDF call as the expression froid composes
# from its body: every workload driver and inline shape answers alike with
# the rule on and off, embedded and over TCP; the froid repros (argument
# capture, numeric and date coercion) and the decline reason codes hold;
# CREATE FUNCTION replans a statement already prepared on a connection.
# decorrelate turns a correlated scalar aggregate into a left join: the
# same rows or the same error with it on, off, alone and with no rule, and
# the inlined-then-decorrelated Aggify+ pipeline agrees with the UDF calls.
inline='TestInlineUDFDifferential|TestInlinedBodyReplannedAfterCreateFunction|TestRewriteTraceGolden|TestDecorrelateDifferential|TestDecorrelateEdgeCases'
froid='TestInlineArgumentNotCaptured|TestInlineCoerces|TestDeclineReasonCodes|TestAggifyPlusPipeline'
go test -count=1 -run "$inline" .
go test -count=1 -run "$froid" ./internal/froid
go test -race -count=1 -run "$inline" .
go test -race -count=1 -run "$froid" ./internal/froid

stage "value layout (24-byte Value, zero-alloc accessors, GC survival, checkptr)"
# -race turns on checkptr, which checks every unsafe conversion in value.go.
layout='TestValueIs24Bytes|TestValueRoundTripEdges|TestCompareGroupEqualHashTable|TestIdentical|TestValuesSurviveGC|TestAccessorsDoNotAllocate'
go test -count=1 -run "$layout" ./internal/sqltypes
go test -race -count=1 -run "$layout" ./internal/sqltypes

stage "wire decoders fuzz (time-boxed)"
# Every message-body decoder and the row codec under them, fed fuzzed
# bodies: no panic, and no more allocation than a fixed multiple of the
# body, so a count read off the wire can never size a slice by itself.
go test -run '^$' -fuzz FuzzWireDecoders -fuzztime 10s ./internal/wire

stage "benchmark harness (its own module: the root go test never builds it)"
(cd benchmark && go vet ./... && go test ./...)

stage "aggifyd debug endpoint smoke"
tmp="$(mktemp -d)"
go build -o "$tmp/aggifyd" ./cmd/aggifyd
"$tmp/aggifyd" -addr 127.0.0.1:0 -http 127.0.0.1:0 >"$tmp/aggifyd.log" 2>&1 &
daemon=$!
daemon2=""
daemon3=""
cleanup() {
	kill "$daemon" 2>/dev/null || true
	[ -n "$daemon2" ] && kill -9 "$daemon2" 2>/dev/null || true
	[ -n "$daemon3" ] && kill "$daemon3" 2>/dev/null || true
	# When CI_ARTIFACT_DIR is set (the GitHub Actions workflow does), keep
	# the daemon logs around so a failed run can upload them as artifacts.
	if [ -n "${CI_ARTIFACT_DIR:-}" ]; then
		mkdir -p "$CI_ARTIFACT_DIR"
		cp "$tmp"/*.log "$CI_ARTIFACT_DIR"/ 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
# The daemon announces the debug listener's bound port in its log.
addr=""
for _ in $(seq 1 50); do
	addr="$(sed -n 's/.*debug http on \([0-9.:]*\).*/\1/p' "$tmp/aggifyd.log" | head -n 1)"
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "aggifyd debug listener never announced itself:"
	cat "$tmp/aggifyd.log"
	exit 1
fi
go run ./scripts/httpget "http://$addr/healthz" | grep -q '"status":"ok"'
go run ./scripts/httpget "http://$addr/metrics" | grep -q '^aggifyd_requests_total'
go run ./scripts/httpget "http://$addr/metrics" | grep -q '^aggifyd_txn_begins_total'
go run ./scripts/httpget "http://$addr/metrics" | grep -q '^aggifyd_stmt_fingerprints'
go run ./scripts/httpget "http://$addr/metrics" | grep -q '^aggifyd_heap_live_bytes'
echo "debug endpoints OK on $addr"

stage "system catalog over TCP smoke"
go build -o "$tmp/sqlsh" ./cmd/sqlsh
tcp_addr="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$tmp/aggifyd.log" | head -n 1)"
if [ -z "$tcp_addr" ]; then
	echo "aggifyd never announced its TCP listener:"
	cat "$tmp/aggifyd.log"
	exit 1
fi
for _ in 1 2 3; do
	printf 'select 1 + 1;\n' | "$tmp/sqlsh" -connect "$tcp_addr" >/dev/null
done
calls="$(printf "select calls from aggify_stat_statements where query = 'select ? + ?';\n" |
	"$tmp/sqlsh" -connect "$tcp_addr" | sed -n '2p')"
if [ "$calls" != "3" ]; then
	echo "aggify_stat_statements over TCP: calls=$calls (want 3)"
	exit 1
fi
echo "system catalog OK (select ? + ? recorded 3 calls)"

stage "fingerprint-stats overhead guard (warm hot path must not allocate)"
go test -count=1 -run TestStmtStatsWarmZeroAllocs ./internal/engine

stage "kill-and-recover smoke (WAL durability)"
datadir="$tmp/data"

# wait_addr LOGFILE PATTERN: echo the address the daemon announced.
wait_addr() {
	a=""
	for _ in $(seq 1 50); do
		a="$(sed -n "s/.*$2 \([0-9.:]*\).*/\1/p" "$1" | head -n 1)"
		[ -n "$a" ] && break
		sleep 0.1
	done
	if [ -z "$a" ]; then
		echo "daemon never announced '$2':" >&2
		cat "$1" >&2
		exit 1
	fi
	echo "$a"
}

"$tmp/aggifyd" -addr 127.0.0.1:0 -data-dir "$datadir" -wal-sync always >"$tmp/d1.log" 2>&1 &
daemon2=$!
addr2="$(wait_addr "$tmp/d1.log" 'listening on')"

# Committed work that must survive the crash.
cat >"$tmp/seed.sql" <<'SQL'
create table durable (n int);
insert into durable values (1), (2), (3);
create table stream_t (n int);
SQL
"$tmp/sqlsh" -connect "$addr2" "$tmp/seed.sql" >/dev/null

# An explicit transaction held open across the crash: its insert must NOT
# survive. The sleep keeps the connection (and the open txn) alive until
# the daemon is killed.
{
	printf 'begin transaction;\ninsert into durable values (999);\nGO\n'
	sleep 5
} | "$tmp/sqlsh" -connect "$addr2" >/dev/null 2>&1 &
txnconn=$!

# A stream of auto-commit writes, SIGKILLed mid-flight.
awk 'BEGIN { for (i = 0; i < 500; i++) printf "insert into stream_t values (%d);\nGO\n", i }' >"$tmp/stream.sql"
{ "$tmp/sqlsh" -connect "$addr2" <"$tmp/stream.sql" >/dev/null 2>&1 || true; } &
streamer=$!
sleep 0.4
kill -9 "$daemon2"
wait "$streamer" 2>/dev/null || true
kill "$txnconn" 2>/dev/null || true
wait "$txnconn" 2>/dev/null || true
daemon2=""

# Restart over the same data directory: recovery replays checkpoint + WAL.
"$tmp/aggifyd" -addr 127.0.0.1:0 -data-dir "$datadir" -wal-sync always >"$tmp/d2.log" 2>&1 &
daemon3=$!
addr3="$(wait_addr "$tmp/d2.log" 'listening on')"
grep -q 'recovered' "$tmp/d2.log"

cat >"$tmp/verify.sql" <<'SQL'
select count(*) as committed_rows from durable;
select count(*) as leaked_uncommitted from durable where n = 999;
SQL
out="$("$tmp/sqlsh" -connect "$addr3" "$tmp/verify.sql")"
committed="$(printf '%s\n' "$out" | sed -n '2p')"
leaked="$(printf '%s\n' "$out" | sed -n '5p')"
if [ "$committed" != "3" ] || [ "$leaked" != "0" ]; then
	echo "kill-and-recover failed: committed=$committed (want 3) leaked=$leaked (want 0)"
	printf '%s\n' "$out"
	exit 1
fi
# The interrupted stream recovers to a consistent prefix (any count is fine;
# the query failing would mean the table or WAL tail came back corrupt).
"$tmp/sqlsh" -connect "$addr3" >/dev/null <<'SQL'
select count(*) from stream_t;
SQL
kill "$daemon3" && wait "$daemon3" 2>/dev/null || true
daemon3=""
echo "kill-and-recover OK (committed rows survived, open txn discarded)"

stage "applicability coverage ratchet"
# The corpus scan (Table 1 + compile-tier coverage) must match the committed
# APPLICABILITY.json: coverage may only go up, and any change must be
# ratified with:  go run ./cmd/applicability -update
go run ./cmd/applicability -check

stage "explain-analyze golden"
# The EXPLAIN ANALYZE output shape (operators + runtime counters, wall
# times normalized) is pinned to testdata/explain_analyze.golden.
# Regenerate intentional changes with:  go test -run TestExplainAnalyzeGolden -update .
go test -count=1 -run 'TestExplainAnalyze' .

stage "rewrite-trace golden"
# The logical rewrite pass's EXPLAIN trace (the `rewrites:` header and the
# per-node [rw:rule] annotations) for representative queries, and the plans
# of eight basic shapes with every rule off, are pinned to
# testdata/rewrite_trace.golden.
# Regenerate intentional changes with:  go test -run TestRewriteTraceGolden -update .
go test -count=1 -run 'TestRewriteTraceGolden' .

stage "done"
echo "CI OK (total $(( $(date +%s) - ci_start ))s)"
