// Command aggifyd runs the database as a network server: a concurrent TCP
// daemon speaking the length-prefixed binary protocol in internal/wire
// (see docs/PROTOCOL.md). Clients connect with the socket driver
// (aggify.Dial, sqlsh --connect) and get one engine session per
// connection, prepared statements, and server-side cursors fetched in
// batches — the real client/server boundary behind the paper's Figure 8
// data-movement experiments.
//
// Usage:
//
//	aggifyd [-addr host:port] [-data-dir DIR] [-wal-sync always|group|off]
//	        [-tpch SF] [-slow-query D] [-http host:port]
//	        [-log-format text|json] [script.sql ...]
//
// Any script files are executed against the engine before the server
// starts accepting (schema, data, UDFs, aggregates). -tpch loads the TPC-H
// tables at the given scale factor. -data-dir makes the database durable:
// committed transactions are written ahead to DIR/wal.log and startup
// replays checkpoint + log back to the last committed epoch; without it
// the engine runs the same MVCC protocol purely in memory. SIGINT/SIGTERM
// drain gracefully: new statements are rejected, in-flight requests
// finish, the WAL is flushed and a final checkpoint written, then
// connections close.
//
// Observability (see docs/OBSERVABILITY.md): -http starts a debug listener
// serving /healthz, /metrics (Prometheus text) and /debug/pprof/*.
// -log-format=json renders the daemon's own log lines as JSON.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aggify"
	"aggify/internal/tpch"
	"aggify/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "listen address")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead log and checkpoints (empty = in-memory, no persistence)")
	walSync := flag.String("wal-sync", "group", "WAL durability mode: always (fsync per commit), group (one fsync amortized over concurrent commits), off (no fsync)")
	tpchSF := flag.Float64("tpch", 0, "load TPC-H tables at this scale factor (0 = off)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	slow := flag.Duration("slow-query", 0, "log requests at least this slow into the server metrics (0 = off)")
	httpAddr := flag.String("http", "", "debug HTTP listen address serving /healthz /metrics /debug/pprof (empty = off)")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	switch *logFormat {
	case "text":
	case "json":
		logger = log.New(jsonLines{w: os.Stderr}, "", 0)
	default:
		log.Fatalf("aggifyd: unknown -log-format %q (want text or json)", *logFormat)
	}

	db := aggify.Open()
	eng := db.Engine()
	if *dataDir != "" {
		mode, err := wal.ParseSyncMode(*walSync)
		if err != nil {
			logger.Fatalf("aggifyd: %v", err)
		}
		start := time.Now()
		if err := eng.OpenData(*dataDir, mode); err != nil {
			logger.Fatalf("aggifyd: -data-dir: %v", err)
		}
		logger.Printf("aggifyd: recovered %d tables at epoch %d from %s (wal-sync=%s) in %v",
			len(eng.Tables()), eng.TxnMgr.Epoch(), *dataDir, mode, time.Since(start).Round(time.Millisecond))
	}
	if *tpchSF > 0 {
		if _, exists := eng.Table("lineitem"); exists {
			logger.Printf("aggifyd: tpch tables already present (recovered); skipping load")
		} else {
			logger.Printf("aggifyd: loading TPC-H sf=%g", *tpchSF)
			if err := tpch.Load(eng, *tpchSF); err != nil {
				logger.Fatalf("aggifyd: tpch: %v", err)
			}
		}
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			logger.Fatalf("aggifyd: %v", err)
		}
		if err := db.Exec(string(src)); err != nil {
			logger.Fatalf("aggifyd: %s: %v", path, err)
		}
		logger.Printf("aggifyd: executed %s", path)
	}

	srv := db.NewServer()
	srv.ErrorLog = logger
	srv.SlowThreshold = *slow
	if *dataDir != "" {
		// Between "no new statements admitted" and "connections closed",
		// flush the WAL and write a final checkpoint while quiescent.
		srv.OnDrain = func() {
			if err := eng.Checkpoint(); err != nil {
				logger.Printf("aggifyd: drain checkpoint: %v", err)
			} else {
				logger.Printf("aggifyd: drain checkpoint written at epoch %d", eng.TxnMgr.Epoch())
			}
		}
	}

	// Background vacuum: reclaim superseded row versions older than the
	// oldest live snapshot. Sessions also vacuum inline after commits; the
	// ticker covers idle periods with long-lived garbage.
	vacStop := make(chan struct{})
	go func() {
		t := time.NewTicker(5 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				eng.Vacuum()
			case <-vacStop:
				return
			}
		}
	}()
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("aggifyd: %v", err)
	}
	logger.Printf("aggifyd: listening on %s", lis.Addr())

	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatalf("aggifyd: -http: %v", err)
		}
		defer hl.Close()
		logger.Printf("aggifyd: debug http on %s", hl.Addr())
		go func() {
			if err := srv.ServeDebug(hl); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Printf("aggifyd: debug http: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	select {
	case s := <-sig:
		logger.Printf("aggifyd: %v — draining (up to %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		close(vacStop)
		if cerr := eng.CloseData(); cerr != nil {
			logger.Printf("aggifyd: close data: %v", cerr)
		}
		if err != nil {
			logger.Printf("aggifyd: forced shutdown: %v", err)
			os.Exit(1)
		}
		logger.Printf("aggifyd: drained cleanly")
	case err := <-done:
		close(vacStop)
		if cerr := eng.CloseData(); cerr != nil {
			logger.Printf("aggifyd: close data: %v", cerr)
		}
		if err != nil && !errors.Is(err, aggify.ErrServerClosed) {
			logger.Fatalf("aggifyd: %v", err)
		}
	}
}

// jsonLines renders each log line the standard logger emits as one JSON
// object: {"ts":"<RFC3339Nano>","msg":"..."}.
type jsonLines struct {
	w io.Writer
}

func (j jsonLines) Write(p []byte) (int, error) {
	buf := make([]byte, 0, len(p)+48)
	buf = append(buf, `{"ts":`...)
	buf = strconv.AppendQuote(buf, time.Now().Format(time.RFC3339Nano))
	buf = append(buf, `,"msg":`...)
	buf = strconv.AppendQuote(buf, strings.TrimRight(string(p), "\n"))
	buf = append(buf, '}', '\n')
	if _, err := j.w.Write(buf); err != nil {
		return 0, err
	}
	return len(p), nil
}
