// Command benchmark is the repository's benchmark: five closed-loop
// workloads over real TCP against a freshly built aggifyd child process,
// every answer checked, plus a traced run that times each layer from
// outside. See README.md.
//
//	bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one run, one JSON result line
//	go run -C benchmark . -all [-runs N] [-seed S]                       every workload, every metric
//	go run -C benchmark . -compare a.json b.json                         verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed the pinned checksums in expected/ belong to.
	defaultSeed = 1
	// defaultSeconds is BENCHMARK.json's run_seconds (bench_test.go checks).
	defaultSeconds = 15
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	notes []string // why correct is false, and other remarks, for stderr
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(ms []metric, name string, v float64) {
	for _, m := range ms {
		if m.Name == name {
			r.Metrics[name] = value{v, m.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the registry")
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (one of: "+strings.Join(workloadNames(), ", ")+")")
		seed    = flag.Int64("seed", defaultSeed, "seed for keys, windows and operation order")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		all     = flag.Bool("all", false, "run every workload, end to end and traced, and write out/results.json")
		runs    = flag.Int("runs", 1, "with -all: runs per workload, on seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments")
		pin     = flag.Bool("pin", false, "with -all: rewrite expected/ from this run (after an intended workload change)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.json files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("this benchmark needs 2 CPUs (one for aggifyd, one for the load generator); nproc is %d", runtime.NumCPU()))
	}
	e, err := newEnv()
	if err != nil {
		fatal(err)
	}
	switch {
	case *all:
		err = e.runAll(*seed, *seconds, *runs, *pin)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
			break
		}
		var res *result
		if *trace == 1 {
			res, err = e.runTrace(w, *seed)
		} else {
			res, err = e.runEndToEnd(w, *seed, time.Duration(*seconds)*time.Second)
		}
		if err == nil {
			for _, n := range res.notes {
				fmt.Fprintln(os.Stderr, "benchmark:", n)
			}
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	default:
		err = fmt.Errorf("give -workload, -all or -compare")
	}
	e.cleanup()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.spec().name)
	}
	return out
}

// newEnv makes the scratch directory and builds aggifyd from the checkout.
// Worktable spill files follow TMPDIR, so it points into the scratch
// directory too, for the daemon and for the in-process traced run.
func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	os.Setenv("TMPDIR", tmp)
	e := &env{root: root, tmp: tmp}
	if e.want, err = loadPinned(); err != nil {
		e.cleanup()
		return nil, err
	}
	if e.bin, err = buildDaemon(root, tmp); err != nil {
		e.cleanup()
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.tmp) }

// runEndToEnd is one -trace 0 run: setupRepeats fresh daemons are set up
// and warmed (setup_s is the median), and the last one is then driven for
// the timed phase.
func (e *env) runEndToEnd(w workload, seed int64, length time.Duration) (*result, error) {
	sp := w.spec()
	if err := w.prepare(seed); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", sp.name, err)
	}
	res := &result{Correct: true, Metrics: map[string]value{}}
	var setups []float64
	var s *session
	for r := 0; r < setupRepeats; r++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = e.setUp(w, false); err != nil {
			return nil, err
		}
		setups = append(setups, s.setupSeconds)
	}
	e.checkPinned(w, seed, s, res)

	// Worktable spill files and the WAL make the timed phase depend on how
	// much dirty data the builds and set-ups left for the kernel to write
	// back; flushing it first starts every run from the same state.
	syscall.Sync()
	// Peak memory is read at a fixed operation count, not at the end of the
	// fixed time, so that a daemon that gets faster is not charged for the
	// extra operations' memory.
	var rssMiB float64
	var rssErr error
	readRSS := func() { rssMiB, rssErr = s.d.peakRSSMiB() }
	timed := s.drive(w, pass{from: sp.warmup, count: -1, deadline: time.Now().Add(length), conns: sp.conns, after: sp.rssOps, then: readRSS})
	if timed.attempted < sp.rssOps {
		readRSS() // too slow to get that far: the end of the phase has to do
	}
	if rssErr != nil {
		s.close()
		return nil, rssErr
	}
	res.Attempted, res.Failed = timed.attempted, timed.failed
	if timed.failed > 0 {
		res.fail("%d of %d operations failed, first: %v", timed.failed, timed.attempted, timed.firstErr)
	}
	if len(timed.latencies) == 0 {
		s.close()
		return nil, fmt.Errorf("%s: no operation succeeded: %v", sp.name, timed.firstErr)
	}
	if _, err := e.finish(w, s, res); err != nil {
		return nil, err
	}

	res.setEndToEnd(setups, rssMiB, timed)
	return res, nil
}

// setEndToEnd fills in the end-to-end metrics from the set-ups' times, the
// daemon's peak resident set and the timed phase's latencies.
func (r *result) setEndToEnd(setups []float64, rssMiB float64, timed driveResult) {
	sort.Float64s(timed.latencies)
	r.set(endToEnd, "setup_s", median(setups))
	r.set(endToEnd, "ops_per_s", float64(len(timed.latencies))/timed.wall.Seconds())
	r.set(endToEnd, "op_p50_ms", percentile(timed.latencies, 0.50))
	r.set(endToEnd, "op_p99_ms", percentile(timed.latencies, 0.99))
	r.set(endToEnd, "server_peak_rss_mb", rssMiB)
}

// finish ends a session. A durable workload's daemon is crashed with
// SIGKILL, restarted on the same data directory, and must still hold every
// acknowledged commit; the restart time is returned in milliseconds.
func (e *env) finish(w workload, s *session, res *result) (recoveryMs float64, err error) {
	e.checkRowCounts(w, s, res)
	acks, durable := s.chk.(*oltpChecker)
	if !durable {
		s.close()
		return 0, nil
	}
	s.disconnect()
	s.d.kill()
	d, err := startDaemon(e.bin, false, daemonArgs(w.spec(), s.dir, "")...)
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recoveryMs = float64(d.ready.Sub(d.started).Nanoseconds()) / 1e6
	s.d, s.addr = d, d.addr
	defer s.close()
	if err := s.connect(w); err != nil {
		return 0, err
	}
	out, err := s.conns[0].ExecResults("select count(*), sum(b_amount) from bids; select sum(i_nbids) from items;")
	if err != nil {
		return 0, fmt.Errorf("reading bids after recovery: %w", err)
	}
	wantCount, wantCents := acks.totals()
	gotCount, _ := out.Sets[0].Rows[0][0].AsInt()
	gotSum, _ := out.Sets[0].Rows[0][1].AsFloat()
	gotBids, _ := out.Sets[1].Rows[0][0].AsInt()
	if gotCents := int64(gotSum*100 + 0.5); gotCount != wantCount || gotCents != wantCents || gotBids != wantCount {
		res.fail("after SIGKILL and recovery: %d bids worth %d cents, items count %d bids; acknowledged %d worth %d",
			gotCount, gotCents, gotBids, wantCount, wantCents)
	}
	return recoveryMs, nil
}

// hostFacts describes where a results.json was measured.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seconds    int    `json:"run_seconds"`
}

// runRecord is one run inside results.json.
type runRecord struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    int              `json:"trace"`
	Correct  bool             `json:"correct"`
	Attempt  int              `json:"attempted"`
	Failed   int              `json:"failed"`
	Metrics  map[string]value `json:"metrics"`
}

type resultsFile struct {
	Host    hostFacts          `json:"host"`
	Runs    []runRecord        `json:"runs"`
	Derived map[string]float64 `json:"derived"`
	Claim   *string            `json:"claim"` // this harness measures; it claims nothing
}

// runAll runs every workload end to end and traced, runs times each, prints
// every metric by name and unit, and writes out/results.json.
func (e *env) runAll(seed int64, seconds, runs int, pin bool) error {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	file := resultsFile{
		Host:    hostFacts{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seconds},
		Derived: map[string]float64{},
	}
	if pin {
		e.pinning = newPinned()
	}
	allCorrect := true
	for _, w := range workloads() {
		for r := 0; r < runs; r++ {
			for trace := 0; trace <= 1; trace++ {
				var res *result
				var err error
				if trace == 1 {
					res, err = e.runTrace(w, seed+int64(r))
				} else {
					res, err = e.runEndToEnd(w, seed+int64(r), time.Duration(seconds)*time.Second)
				}
				if err != nil {
					return err
				}
				allCorrect = allCorrect && res.Correct
				file.Runs = append(file.Runs, runRecord{w.spec().name, seed + int64(r), trace, res.Correct, res.Attempted, res.Failed, res.Metrics})
				printRun(w.spec().name, seed+int64(r), trace, res)
			}
		}
	}
	cur, agg := file.medianOf("loop_cursor", "op_p50_ms"), file.medianOf("loop_aggified", "op_p50_ms")
	if agg > 0 {
		file.Derived["aggify_speedup"] = cur / agg
		fmt.Printf("\naggify_speedup %.3f x   (op_p50_ms loop_cursor %.4f ms / loop_aggified %.4f ms)\n", cur/agg, cur, agg)
	}
	outDir := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, _ := json.MarshalIndent(file, "", "  ")
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if pin {
		if err := e.pinning.write(e.root); err != nil {
			return err
		}
	}
	if !allCorrect {
		return fmt.Errorf("at least one run failed a correctness check (see above)")
	}
	return nil
}

// medianOf is the median of a metric over a workload's runs in the file.
func (f *resultsFile) medianOf(workload, metric string) float64 {
	return median(f.valuesOf(workload, metric))
}

func (f *resultsFile) valuesOf(workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func printRun(workload string, seed int64, trace int, res *result) {
	fmt.Printf("\n%s  seed %d  trace %d  correct %v  attempted %d  failed %d\n", workload, seed, trace, res.Correct, res.Attempted, res.Failed)
	for _, n := range res.notes {
		fmt.Println("  note:", n)
	}
	ms := endToEnd
	if trace == 1 {
		ms = perLayer
	}
	for _, m := range ms {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
}
