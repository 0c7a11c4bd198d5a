// Package server is the aggifyd daemon: a concurrent TCP server exposing
// the engine over the length-prefixed binary protocol of internal/wire.
// Each connection gets its own engine session (temp tables, statistics,
// PRINT buffer) plus per-connection prepared statements and server-side
// cursors, so round trips and data movement are real rather than simulated
// — the client/server boundary the paper's Figure 8 experiments measure.
package server

import (
	"fmt"

	"aggify/internal/ast"
	"aggify/internal/engine"
	"aggify/internal/fingerprint"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// Backend is the per-connection protocol state machine: one engine session,
// the connection's prepared statements, and its open server-side cursors.
// A Backend is driven by a single goroutine (the connection handler, or the
// in-process transport) and is not safe for concurrent use; concurrency
// across connections comes from each having its own Backend.
type Backend struct {
	sess       *engine.Session
	stmts      map[uint32]preparedStmt
	cursors    map[uint32]*cursor
	nextStmt   uint32
	nextCursor uint32

	// cursorGauge, when set, is called with +1/-1 as cursors open and close
	// (the server's open-cursor gauge).
	cursorGauge func(delta int64)
}

// preparedStmt keeps the parsed query together with its source text, so
// executions can be attributed to the statement's fingerprint.
type preparedStmt struct {
	q   *ast.Select
	src string
}

// cursor is a materialized result handed out in fetch-sized batches. The
// engine runs queries to completion (rows spool like a cursor worktable);
// the cursor meters their transfer to the client.
type cursor struct {
	cols []string
	rows [][]sqltypes.Value
	pos  int
}

// NewBackend opens a fresh session against the engine.
func NewBackend(eng *engine.Engine) *Backend {
	return &Backend{
		sess:    eng.NewSession(),
		stmts:   map[uint32]preparedStmt{},
		cursors: map[uint32]*cursor{},
	}
}

// Session exposes the backend's engine session (statistics, options).
func (b *Backend) Session() *engine.Session { return b.sess }

// requestFingerprint fingerprints the statement text a request carries or,
// for a Query, names; 0 for requests without one.
func (b *Backend) requestFingerprint(typ wire.MsgType, body []byte) uint64 {
	switch typ {
	case wire.MsgExec, wire.MsgPrepare:
		return fingerprint.Fingerprint(string(body))
	case wire.MsgQuery:
		if id, _, err := wire.DecodeQueryReq(body); err == nil {
			return fingerprint.Fingerprint(b.stmts[id].src)
		}
	}
	return 0
}

// OpenCursors returns the number of cursors currently held.
func (b *Backend) OpenCursors() int { return len(b.cursors) }

// Exec parses and runs a script batch, returning PRINT output and any
// top-level result sets.
func (b *Backend) Exec(src string) (*wire.ExecResult, error) {
	stmts, spans, err := parser.ParseSpans(src)
	if err != nil {
		return nil, err
	}
	sets, err := interp.RunScriptSpans(b.sess, src, stmts, spans)
	res := &wire.ExecResult{Prints: b.sess.Prints()}
	if err != nil {
		return nil, err
	}
	for _, s := range sets {
		res.Sets = append(res.Sets, wire.ResultSet{Columns: s.Columns, Rows: s.Rows})
	}
	return res, nil
}

// Prepare parses a single SELECT (with '?' placeholders) and returns its
// statement id.
func (b *Backend) Prepare(src string) (uint32, error) {
	stmts, err := parser.Parse(src)
	if err != nil {
		return 0, err
	}
	if len(stmts) != 1 {
		return 0, fmt.Errorf("server: Prepare expects a single statement")
	}
	qs, ok := stmts[0].(*ast.QueryStmt)
	if !ok {
		return 0, fmt.Errorf("server: Prepare expects a SELECT")
	}
	b.nextStmt++
	b.stmts[b.nextStmt] = preparedStmt{q: qs.Query, src: src}
	return b.nextStmt, nil
}

// Query executes a prepared statement and opens a server-side cursor over
// its full result. It hands out no rows: a MsgQuery exchange goes through
// QueryBatch, whose reply carries the first batch, and Fetch pulls the rest.
func (b *Backend) Query(stmtID uint32, args []sqltypes.Value) (uint32, []string, error) {
	ps, ok := b.stmts[stmtID]
	if !ok {
		return 0, nil, fmt.Errorf("server: unknown statement %d", stmtID)
	}
	ctx := b.sess.Ctx(nil, nil)
	ctx.Params = args
	rec := b.sess.BeginStmt(ps.src)
	cols, rows, err := b.sess.Query(ps.q, ctx)
	b.sess.EndStmt(rec, err)
	if err != nil {
		return 0, nil, err
	}
	b.nextCursor++
	b.cursors[b.nextCursor] = &cursor{cols: cols, rows: rows}
	b.sess.NoteCursorOpen(1)
	if b.cursorGauge != nil {
		b.cursorGauge(1)
	}
	return b.nextCursor, cols, nil
}

// QueryBatch is one MsgQuery exchange: Query, then the first Fetch of at
// most maxRows rows. A maxRows of 0 fetches nothing and leaves the cursor
// open. A first batch that exhausts the result comes back done, with the
// cursor already released, so a small result costs one round trip.
func (b *Backend) QueryBatch(stmtID uint32, args []sqltypes.Value, maxRows int) (uint32, []string, [][]sqltypes.Value, bool, error) {
	curID, cols, err := b.Query(stmtID, args)
	if err != nil || maxRows <= 0 {
		return curID, cols, nil, false, err
	}
	rows, done, err := b.Fetch(curID, maxRows)
	return curID, cols, rows, done, err
}

// Fetch returns the next batch of at most maxRows rows. done reports the
// cursor exhausted; an exhausted cursor is released immediately, so a full
// scan never needs a CloseCursor round trip.
func (b *Backend) Fetch(cursorID uint32, maxRows int) ([][]sqltypes.Value, bool, error) {
	c, ok := b.cursors[cursorID]
	if !ok {
		// Cursor ids are handed out sequentially, so an id at or below the
		// high-water mark names a cursor this connection once held: it was
		// released, either by an explicit close or by the fetch that
		// exhausted it (done=true).
		if cursorID > 0 && cursorID <= b.nextCursor {
			return nil, false, fmt.Errorf("server: cursor %d already released (closed or exhausted)", cursorID)
		}
		return nil, false, fmt.Errorf("server: unknown cursor %d", cursorID)
	}
	if maxRows < 1 {
		maxRows = 1
	}
	// Clamp before adding: c.pos + maxRows wraps negative for a maxRows
	// near MaxInt.
	if left := len(c.rows) - c.pos; maxRows > left {
		maxRows = left
	}
	hi := c.pos + maxRows
	batch := c.rows[c.pos:hi]
	c.pos = hi
	done := c.pos >= len(c.rows)
	if done {
		b.releaseCursor(cursorID)
	}
	return batch, done, nil
}

// CloseCursor releases a cursor early; its unfetched rows are never
// transferred. Closing an unknown (or already-exhausted) cursor is not an
// error, mirroring lenient driver semantics.
func (b *Backend) CloseCursor(cursorID uint32) error {
	b.releaseCursor(cursorID)
	return nil
}

func (b *Backend) releaseCursor(cursorID uint32) {
	if _, ok := b.cursors[cursorID]; !ok {
		return
	}
	delete(b.cursors, cursorID)
	b.sess.NoteCursorOpen(-1)
	if b.cursorGauge != nil {
		b.cursorGauge(-1)
	}
}

// Close releases all cursors and statements and closes the engine session
// (connection teardown). Closing the session rolls back any explicit
// transaction the connection left open, so a dropped client can never
// leave uncommitted versions pinning the vacuum horizon.
func (b *Backend) Close() {
	for id := range b.cursors {
		b.releaseCursor(id)
	}
	b.stmts = map[uint32]preparedStmt{}
	b.sess.Close()
}
