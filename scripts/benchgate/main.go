// Command benchgate is the CI bench-regression gate. It runs the short
// ^BenchmarkGate suite (see bench_gate_test.go), distills each benchmark to
// its best ns/op across -count runs, and compares the result against the
// committed snapshot BENCH_7.json:
//
//   - any benchmark more than -threshold (default 25%) slower than its
//     snapshot entry fails the gate;
//   - the norewrite ÷ rewrite ns/op ratio of BenchmarkGatePushdown is
//     recorded as pushdown_speedup and must be ≥ 1.5 — the predicate-
//     pushdown rewrite has to actually pay for itself;
//   - the fullscan ÷ rangeseek ns/op ratio of BenchmarkGateRangeSeek is
//     recorded as rangeseek_speedup and must be ≥ 2 — the ordered-index
//     range seek the cost model picks has to beat the scan it replaces.
//     The floor was 5 while the full scan filtered through FilterOp; the
//     scan now filters inside its cursor callback, which took the
//     denominator from ~19 ms to ~5.5 ms and left the seek at ~2.2 ms, so
//     the ratio measures 2.2–2.8× (median 2.4× of six gate runs on 2
//     vCPUs) and 2 sits just under it. The seek's own ns/op is held by
//     the 25% rule above;
//   - the interpreted ÷ compiled ns/op ratio of BenchmarkGateProcCompile is
//     recorded as proc_compile_speedup and must be ≥ 1.5 — the routine
//     compiler's slot-closure pipeline has to beat the tree-walking
//     interpreter on the same body (results are byte-identical by
//     construction; the benchmark asserts it before measuring);
//   - BenchmarkGatePlanCache/replay's warm hit rate is recorded as
//     plan_cache_hit_pct and must be ≥ 99%, and
//     BenchmarkGatePlanCache/lookup must report 0 allocs/op — a warm
//     AST-identity cache hit may not allocate;
//   - -update rewrites the snapshot with the current numbers instead of
//     comparing.
//
// Invoked via scripts/bench_regress.sh from scripts/ci.sh and `make bench`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	HitPct      float64 `json:"hit_pct,omitempty"`

	// sawAllocs distinguishes a measured 0 allocs/op from a cell that
	// never reported allocations.
	sawAllocs bool
}

type snapshot struct {
	Note             string        `json:"note"`
	NumCPU           int           `json:"num_cpu"`
	Benchmarks       []benchResult `json:"benchmarks"`
	PushdownSpeedup  float64       `json:"pushdown_speedup"`
	RangeSeekSpeedup float64       `json:"rangeseek_speedup"`
	// ProcCompileSpeedup is interpreted ÷ compiled ns/op for the same
	// routine body; the compile-first pipeline must hold ≥ 1.5×.
	ProcCompileSpeedup float64 `json:"proc_compile_speedup"`
	PlanCacheHitPct    float64 `json:"plan_cache_hit_pct"`
	PlanCacheAllocs    float64 `json:"plan_cache_allocs"`
}

const (
	rewriteBench   = "BenchmarkGatePushdown/rewrite"
	norewriteBench = "BenchmarkGatePushdown/norewrite"
	rangeBench     = "BenchmarkGateRangeSeek/rangeseek"
	fullscanBench  = "BenchmarkGateRangeSeek/fullscan"
	replayBench    = "BenchmarkGatePlanCache/replay"
	lookupBench    = "BenchmarkGatePlanCache/lookup"
	compiledBench  = "BenchmarkGateProcCompile/compiled"
	interpBench    = "BenchmarkGateProcCompile/interpreted"
)

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	update := flag.Bool("update", false, "rewrite the snapshot with the current numbers")
	snapPath := flag.String("snapshot", "BENCH_7.json", "snapshot file to compare against")
	benchRe := flag.String("bench", "^BenchmarkGate", "benchmark selection regex")
	benchtime := flag.String("benchtime", "200ms", "per-benchmark measuring time")
	count := flag.Int("count", 3, "runs per benchmark (best is kept)")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional slowdown vs the snapshot")
	flag.Parse()

	results, err := runBenchmarks(*benchRe, *benchtime, *count)
	if err != nil {
		fatalf("%v", err)
	}
	if len(results) == 0 {
		fatalf("no benchmarks matched %q", *benchRe)
	}
	cur := snapshot{
		Note:       "Bench-regression snapshot. Regenerate with: scripts/bench_regress.sh -update",
		NumCPU:     runtime.NumCPU(),
		Benchmarks: results,
	}
	byName := map[string]benchResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if n, ok := byName[norewriteBench]; ok {
		if r, ok := byName[rewriteBench]; ok && r.NsPerOp > 0 {
			cur.PushdownSpeedup = round3(n.NsPerOp / r.NsPerOp)
		}
	}
	if f, ok := byName[fullscanBench]; ok {
		if r, ok := byName[rangeBench]; ok && r.NsPerOp > 0 {
			cur.RangeSeekSpeedup = round3(f.NsPerOp / r.NsPerOp)
		}
	}
	if ip, ok := byName[interpBench]; ok {
		if c, ok := byName[compiledBench]; ok && c.NsPerOp > 0 {
			cur.ProcCompileSpeedup = round3(ip.NsPerOp / c.NsPerOp)
		}
	}
	if r, ok := byName[replayBench]; ok {
		cur.PlanCacheHitPct = round3(r.HitPct)
	}
	if l, ok := byName[lookupBench]; ok {
		cur.PlanCacheAllocs = l.AllocsPerOp
	}

	for _, r := range results {
		line := fmt.Sprintf("%-44s %14.0f ns/op", r.Name, r.NsPerOp)
		if r.RowsPerSec > 0 {
			line += fmt.Sprintf(" %14.0f rows/s", r.RowsPerSec)
		}
		fmt.Println(line)
	}
	fmt.Printf("pushdown speedup (norewrite/rewrite): %.2fx\n", cur.PushdownSpeedup)
	fmt.Printf("rangeseek speedup (fullscan/rangeseek): %.2fx\n", cur.RangeSeekSpeedup)
	fmt.Printf("proc compile speedup (interpreted/compiled): %.2fx\n", cur.ProcCompileSpeedup)
	fmt.Printf("plan cache: %.1f%% warm hit rate, %.0f allocs/op warm lookup\n", cur.PlanCacheHitPct, cur.PlanCacheAllocs)

	if *update {
		buf, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*snapPath, append(buf, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("snapshot written to %s\n", *snapPath)
		return
	}

	buf, err := os.ReadFile(*snapPath)
	if err != nil {
		fatalf("read snapshot: %v (run scripts/bench_regress.sh -update to create it)", err)
	}
	var prev snapshot
	if err := json.Unmarshal(buf, &prev); err != nil {
		fatalf("parse %s: %v", *snapPath, err)
	}

	var failures []string
	seen := map[string]bool{}
	for _, old := range prev.Benchmarks {
		seen[old.Name] = true
		now, ok := byName[old.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in snapshot but did not run", old.Name))
			continue
		}
		if old.NsPerOp > 0 && now.NsPerOp > old.NsPerOp*(1+*threshold) {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs snapshot %.0f (+%.0f%%, limit +%.0f%%)",
				old.Name, now.NsPerOp, old.NsPerOp,
				(now.NsPerOp/old.NsPerOp-1)*100, *threshold*100))
		}
	}
	for _, r := range results {
		if !seen[r.Name] {
			failures = append(failures, fmt.Sprintf("%s: not in snapshot (run scripts/bench_regress.sh -update)", r.Name))
		}
	}
	// The ratios bind wherever their pair ran: the pushdown ratio first.
	if cur.PushdownSpeedup > 0 && cur.PushdownSpeedup < 1.5 {
		failures = append(failures, fmt.Sprintf("pushdown speedup %.2fx < 1.5x (rewrite pass not paying for itself)",
			cur.PushdownSpeedup))
	}
	// And the range-seek ratio: the cost model's ordered-index pick must
	// beat the filtering full scan it replaces.
	if cur.RangeSeekSpeedup > 0 && cur.RangeSeekSpeedup < 2 {
		failures = append(failures, fmt.Sprintf("rangeseek speedup %.2fx < 2x (ordered-index range seek not paying for itself)",
			cur.RangeSeekSpeedup))
	}
	// The routine compiler must pay for itself too.
	if cur.ProcCompileSpeedup > 0 && cur.ProcCompileSpeedup < 1.5 {
		failures = append(failures, fmt.Sprintf("proc compile speedup %.2fx < 1.5x (routine compiler not paying for itself)",
			cur.ProcCompileSpeedup))
	}
	// Plan-cache enforcement: both cells must have run, the warm replay hit
	// rate must stay >= 99%, and the warm AST-identity lookup must not
	// allocate.
	if r, ok := byName[replayBench]; ok && r.HitPct < 99 {
		failures = append(failures, fmt.Sprintf("plan cache warm hit rate %.1f%% < 99%%", r.HitPct))
	}
	if l, ok := byName[lookupBench]; ok && l.sawAllocs && l.AllocsPerOp > 0 {
		failures = append(failures, fmt.Sprintf("plan cache warm lookup allocates (%.0f allocs/op, want 0)", l.AllocsPerOp))
	}

	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "bench regression gate FAILED:")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("bench regression gate OK")
}

// runBenchmarks executes the gate suite and keeps, per benchmark, the best
// ns/op (and best rows/s) over all -count runs — the minimum is far more
// stable than the mean on a loaded CI host.
func runBenchmarks(benchRe, benchtime string, count int) ([]benchResult, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", benchRe, "-benchtime", benchtime, "-count", strconv.Itoa(count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s", err, out)
	}
	best := map[string]*benchResult{}
	var order []string
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		var nsPerOp, rowsPerSec, allocsPerOp, hitPct float64
		sawAllocs := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				nsPerOp = v
			case "rows/s":
				rowsPerSec = v
			case "allocs/op":
				allocsPerOp = v
				sawAllocs = true
			case "hit%":
				hitPct = v
			}
		}
		if nsPerOp == 0 {
			continue
		}
		r, ok := best[name]
		if !ok {
			best[name] = &benchResult{Name: name, NsPerOp: nsPerOp, RowsPerSec: rowsPerSec,
				AllocsPerOp: allocsPerOp, HitPct: hitPct, sawAllocs: sawAllocs}
			order = append(order, name)
			continue
		}
		if nsPerOp < r.NsPerOp {
			r.NsPerOp = nsPerOp
		}
		if rowsPerSec > r.RowsPerSec {
			r.RowsPerSec = rowsPerSec
		}
		if sawAllocs {
			// Worst (max) allocs across runs: a single allocating run fails.
			r.sawAllocs = true
			if allocsPerOp > r.AllocsPerOp {
				r.AllocsPerOp = allocsPerOp
			}
		}
		if hitPct > 0 && (r.HitPct == 0 || hitPct < r.HitPct) {
			// Worst (min) hit rate across runs.
			r.HitPct = hitPct
		}
	}
	results := make([]benchResult, 0, len(order))
	for _, name := range order {
		results = append(results, *best[name])
	}
	return results, nil
}

func round3(x float64) float64 {
	s, err := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 3, 64), 64)
	if err != nil {
		return x
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
