package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"aggify/internal/engine"
	"aggify/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Server is a concurrent TCP front end over one engine. Each accepted
// connection runs in its own goroutine with its own Backend; the shared
// engine underneath is safe for concurrent sessions.
type Server struct {
	eng *engine.Engine

	// ErrorLog receives per-connection protocol errors; nil silences them.
	ErrorLog *log.Logger
	// SlowThreshold, when positive, logs requests at least this slow into the
	// metrics slow-query ring (see Metrics). Set before Serve.
	SlowThreshold time.Duration

	// OnDrain, when set, runs during Shutdown after in-flight requests have
	// finished and new work is being rejected, but before any connection
	// (and its cursors) is torn down. aggifyd uses it to flush the WAL and
	// write a final checkpoint while the engine is quiescent. Set before
	// Serve.
	OnDrain func()

	// metrics is the server-wide query-metrics registry.
	metrics Metrics

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	shutdown bool

	wg          sync.WaitGroup
	reqWG       sync.WaitGroup // in-flight requests (one dispatch each)
	draining    atomic.Bool    // reject new transactions/statements
	openCursors atomic.Int64
}

// New creates a server for the engine.
func New(eng *engine.Engine) *Server {
	return &Server{eng: eng, conns: map[net.Conn]struct{}{}}
}

// OpenCursors returns the number of server-side cursors currently open
// across all connections.
func (s *Server) OpenCursors() int64 { return s.openCursors.Load() }

// Stats returns the server's query-metrics snapshot (the same data a client
// obtains with MsgStats).
func (s *Server) Stats() *wire.ServerStats { return s.metrics.Snapshot(s.openCursors.Load()) }

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until Shutdown or Close. It always closes
// the listener before returning.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.lis = l
	s.mu.Unlock()
	defer l.Close()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Shutdown drains the server in three ordered phases:
//
//  1. Stop admitting work: the listener closes and new Exec/Prepare/Query
//     requests (anything that could start a transaction) are rejected,
//     while Fetch/CloseCursor/Stats keep working so clients can drain. It
//     then waits for in-flight requests to finish (or ctx to expire).
//  2. Run the OnDrain hook — WAL flush and final checkpoint — while no
//     statement is executing and no connection has been torn down yet.
//  3. Close connections: pending reads are unblocked so handlers exit
//     (rolling back any open explicit transactions); if ctx expires first
//     the remaining connections are forcibly closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	l := s.lis
	s.mu.Unlock()
	s.draining.Store(true)
	if l != nil {
		l.Close()
	}

	reqDone := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(reqDone)
	}()
	var expired bool
	select {
	case <-reqDone:
	case <-ctx.Done():
		expired = true
	}

	if s.OnDrain != nil {
		s.OnDrain()
	}

	s.mu.Lock()
	// Unblock reads: idle connections fail their pending Read and close;
	// connections mid-request finish and fail on the next Read.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if !expired {
		select {
		case <-done:
			return nil
		case <-ctx.Done():
		}
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	if expired || ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// Close is Shutdown without grace: it force-closes everything.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// handle runs one connection's request loop.
func (s *Server) handle(c net.Conn) {
	s.metrics.connections.Add(1)
	b := NewBackend(s.eng)
	b.cursorGauge = func(d int64) {
		s.openCursors.Add(d)
		if d > 0 {
			s.metrics.cursorsOpened.Add(d)
		}
	}
	defer func() {
		b.Close()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	for {
		typ, body, rn, err := wire.ReadFrame(br)
		if err != nil {
			// EOF, peer reset, shutdown deadline, or a malformed frame
			// (e.g. oversized) — the connection cannot continue either way.
			s.logf("aggifyd: %v: %v", c.RemoteAddr(), err)
			return
		}
		start := time.Now()
		s.reqWG.Add(1)
		respT, respB := s.dispatchContained(b, typ, body)
		s.reqWG.Done()
		wn, err := wire.WriteFrame(bw, respT, respB)
		s.metrics.record(typ, time.Since(start), rn, wn, body, s.SlowThreshold)
		if err != nil {
			s.logf("aggifyd: %v: write: %v", c.RemoteAddr(), err)
			return
		}
		if err := bw.Flush(); err != nil {
			s.logf("aggifyd: %v: flush: %v", c.RemoteAddr(), err)
			return
		}
		if typ == wire.MsgQuit {
			return
		}
	}
}

// msgName names a request type for the panic log (no allocation).
func msgName(typ wire.MsgType) string {
	switch typ {
	case wire.MsgExec:
		return "exec"
	case wire.MsgPrepare:
		return "prepare"
	case wire.MsgQuery:
		return "query"
	case wire.MsgFetch:
		return "fetch"
	case wire.MsgCloseCursor:
		return "close_cursor"
	case wire.MsgStats:
		return "stats"
	case wire.MsgQuit:
		return "quit"
	default:
		return "unknown"
	}
}

// dispatchContained is dispatch behind the per-connection fault boundary. A
// panic below it — an engine bug, or a user-registered native aggregate —
// must not take down every other session with the process: the statement's
// transaction is rolled back, the client gets an ordinary error reply, the
// fault is counted (aggifyd_panics_total) and logged with the statement's
// fingerprint and the stack, and the connection keeps serving.
func (s *Server) dispatchContained(b *Backend, typ wire.MsgType, body []byte) (respT wire.MsgType, respB []byte) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.metrics.panics.Add(1)
		b.sess.AbortStmt()
		s.logf("aggifyd: panic serving %s fingerprint=%016x: %v\n%s", msgName(typ), b.requestFingerprint(typ, body), r, debug.Stack())
		respT, respB = wire.MsgError, []byte(fmt.Sprintf("server: internal error: %v", r))
	}()
	return s.dispatch(b, typ, body)
}

// dispatch decodes a request, runs it against the backend, and encodes the
// reply. Request errors become MsgError frames; the connection stays up.
func (s *Server) dispatch(b *Backend, typ wire.MsgType, body []byte) (wire.MsgType, []byte) {
	// While draining, anything that could start new work — a script batch,
	// a prepare, a query opening a cursor — is rejected; fetching from (and
	// closing) existing cursors still works so clients can finish.
	if s.draining.Load() {
		switch typ {
		case wire.MsgExec, wire.MsgPrepare, wire.MsgQuery:
			return wire.MsgError, []byte("server: shutting down")
		}
	}
	switch typ {
	case wire.MsgExec:
		res, err := b.Exec(string(body))
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		return wire.MsgResults, wire.EncodeExecResult(res)
	case wire.MsgPrepare:
		id, err := b.Prepare(string(body))
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		return wire.MsgStmt, wire.EncodeStmtResp(id)
	case wire.MsgQuery:
		stmtID, args, maxRows, err := wire.DecodeQueryBatchReq(body)
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		curID, cols, rows, done, err := b.QueryBatch(stmtID, args, maxRows)
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		return wire.MsgCursor, wire.EncodeCursorBatchResp(curID, cols, rows, done)
	case wire.MsgFetch:
		curID, maxRows, err := wire.DecodeFetchReq(body)
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		rows, done, err := b.Fetch(curID, maxRows)
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		return wire.MsgRows, wire.EncodeRowsResp(rows, done)
	case wire.MsgCloseCursor:
		curID, err := wire.DecodeCloseReq(body)
		if err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		if err := b.CloseCursor(curID); err != nil {
			return wire.MsgError, []byte(err.Error())
		}
		return wire.MsgOK, nil
	case wire.MsgStats:
		return wire.MsgServerStats, wire.EncodeServerStats(s.Stats())
	case wire.MsgQuit:
		return wire.MsgOK, nil
	default:
		return wire.MsgError, []byte(fmt.Sprintf("server: unknown message type 0x%02x", byte(typ)))
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}
