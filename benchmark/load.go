package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aggify"
	"aggify/internal/client"
	"aggify/internal/sqltypes"
)

// env is what every run of one harness process shares.
type env struct {
	root string // checkout root
	tmp  string // scratch directory inside the checkout, removed at exit
	bin  string // the aggifyd built from this checkout
	n    int    // data directories handed out so far

	want    *pinned // expected/, as embedded at build time
	pinning *pinned // non-nil under -pin: record expected/ instead of checking it
}

// session is one fresh daemon, its connections and prepared statements.
type session struct {
	d     *daemon // nil when the server is not a child process (bench_test.go)
	addr  string
	conns []*aggify.Conn
	stmts [][]*client.Stmt
	dir   string  // data directory ("" unless the workload is durable)
	chk   checker // verifies this daemon's answers

	setupSeconds float64 // exec aggifyd -> end of the warm-up pass
	warmChecksum uint64  // the warm-up pass's answers, folded
}

// daemonArgs are the workload's aggifyd flags; everything else is default
// (-maxdop 1). The flush policy of the durable workload is fixed: group.
func daemonArgs(sp sizes, dataDir, scriptPath string) []string {
	var args []string
	if sp.tpch {
		args = append(args, "-tpch", fmt.Sprint(tpchSF))
	}
	if sp.durable {
		args = append(args, "-data-dir", dataDir, "-wal-sync", "group")
	}
	if scriptPath != "" {
		args = append(args, scriptPath)
	}
	return args
}

// setUp starts a fresh daemon for the workload, connects, prepares and runs
// the W-operation warm-up pass, timing all of it from exec. The build is
// not in it: the binary exists already.
func (e *env) setUp(w workload, withHTTP bool) (*session, error) {
	sp := w.spec()
	e.n++
	s := &session{}
	scriptPath := ""
	if src := w.script(); src != "" {
		scriptPath = filepath.Join(e.tmp, fmt.Sprintf("%s-%d.sql", sp.name, e.n))
		if err := os.WriteFile(scriptPath, []byte(src), 0o644); err != nil {
			return nil, err
		}
	}
	if sp.durable {
		s.dir = filepath.Join(e.tmp, fmt.Sprintf("%s-%d.data", sp.name, e.n))
	}
	d, err := startDaemon(e.bin, withHTTP, daemonArgs(sp, s.dir, scriptPath)...)
	if err != nil {
		return nil, err
	}
	s.d, s.addr = d, d.addr
	if err := s.warm(w); err != nil {
		s.close()
		return nil, err
	}
	s.setupSeconds = time.Since(d.started).Seconds()
	return s, nil
}

// warm connects, prepares and runs the W-operation warm-up pass against a
// fresh server, checking and checksumming every answer.
func (s *session) warm(w workload) error {
	if err := s.connect(w); err != nil {
		return err
	}
	s.chk = w.newChecker()
	sp := w.spec()
	res := s.drive(w, pass{count: sp.warmup, conns: sp.conns, record: true})
	s.warmChecksum = res.checksum
	if res.failed > 0 {
		return fmt.Errorf("%s warm-up: %d of %d operations failed, first: %v", sp.name, res.failed, res.attempted, res.firstErr)
	}
	return nil
}

// connect dials the workload's connections and prepares its statements.
func (s *session) connect(w workload) error {
	for c := 0; c < w.spec().conns; c++ {
		conn, err := aggify.Dial(s.addr, aggify.LAN)
		if err != nil {
			return fmt.Errorf("dial %s: %w", s.addr, err)
		}
		s.conns = append(s.conns, conn)
		var prepared []*client.Stmt
		for _, sql := range w.statements() {
			st, err := conn.Prepare(sql)
			if err != nil {
				return fmt.Errorf("prepare %q: %w", sql, err)
			}
			prepared = append(prepared, st)
		}
		s.stmts = append(s.stmts, prepared)
	}
	return nil
}

func (s *session) disconnect() {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns, s.stmts = nil, nil
}

// close drops the connections and stops the daemon.
func (s *session) close() {
	s.disconnect()
	if s.d != nil {
		s.d.stop()
	}
}

// execOp sends one operation and pulls its whole answer.
func execOp(conn *aggify.Conn, stmts []*client.Stmt, o *op) ([][]sqltypes.Value, error) {
	if o.stmt < 0 {
		res, err := conn.ExecResults(o.sql)
		if err != nil || len(res.Sets) == 0 {
			return nil, err
		}
		return res.Sets[0].Rows, nil
	}
	rs, err := stmts[o.stmt].Query(o.args...)
	if err != nil {
		return nil, err
	}
	var rows [][]sqltypes.Value
	for rs.Next() {
		rows = append(rows, rs.Row())
	}
	if err := rs.Err(); err != nil {
		return nil, err
	}
	return rows, rs.Close()
}

// driveResult is what one closed-loop pass observed.
type driveResult struct {
	latencies []float64 // per successful operation, milliseconds, all connections
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	checksum  uint64 // with record: sum over operations of mix(index, digest of its rows)
}

// pass says which operations one closed-loop pass runs: from, from+1, ...
// until count operations are done (count >= 0) or the deadline has passed
// (non-zero), whichever is given, over the session's first conns
// connections.
type pass struct {
	from, count int
	deadline    time.Time
	conns       int
	// record folds every answer into driveResult.checksum.
	record bool
	// after calls then once, from the connection that completes the
	// after-th operation of the pass (0 = never).
	after int
	then  func()
}

// drive runs a pass as a closed loop: connection c takes every conns-th
// operation and sends the next only after the previous reply. An operation
// fails on an error reply, a wrong answer or a latency above
// opDeadlineSeconds. A recorded checksum does not depend on the order the
// connections finished in.
func (s *session) drive(w workload, p pass) driveResult {
	nc, logical := p.conns, w.spec().conns
	per := make([]driveResult, nc)
	var completed atomic.Int64
	stopWatch := make(chan struct{})
	go s.watchdog(&completed, stopWatch)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &per[c]
			for i := p.from + c; p.count < 0 || i < p.from+p.count; i += nc {
				if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
					break
				}
				o := w.op(i)
				t0 := time.Now()
				rows, err := execOp(s.conns[c], s.stmts[c], &o)
				lat := time.Since(t0)
				if err == nil && lat > opDeadlineSeconds*time.Second {
					err = fmt.Errorf("%s: took %v, over the %ds deadline", o, lat, opDeadlineSeconds)
				}
				if err == nil {
					err = s.chk.check(i%logical, &o, rows)
				}
				r.attempted++
				if completed.Add(1) == int64(p.after) {
					p.then()
				}
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					if r.failed > 100 {
						return // the connection or the daemon is gone
					}
					continue
				}
				r.latencies = append(r.latencies, float64(lat.Nanoseconds())/1e6)
				if p.record {
					r.checksum += mix(0, i, digest(rows))
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopWatch)

	out := driveResult{wall: time.Since(start)}
	for _, r := range per {
		out.latencies = append(out.latencies, r.latencies...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.checksum += r.checksum
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// watchdog kills the daemon when no operation has completed for twice the
// operation deadline, so a hung daemon fails the run instead of hanging it.
func (s *session) watchdog(completed *atomic.Int64, stop <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last, idle := int64(-1), 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if cur := completed.Load(); cur != last {
				last, idle = cur, 0
			} else if idle++; idle >= 2*opDeadlineSeconds && s.d != nil {
				s.d.cmd.Process.Kill()
				return
			}
		}
	}
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
