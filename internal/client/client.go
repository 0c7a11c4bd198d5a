// Package client provides the application side of the paper's database-
// backed-application experiments (§2.2, Figures 2 and 8): a JDBC-style API
// (Connect / Prepare / Query / ResultSet iteration) over a pluggable
// transport. Connect runs against an in-process engine with a virtual
// network meter; Dial speaks the same binary protocol to a live aggifyd
// over TCP. Either way the server holds the cursor: client loops pull rows
// in FetchSize batches, paying a round trip per batch and transferring
// every row, while Aggify-rewritten programs ship one CREATE AGGREGATE plus
// one query and receive a single row back.
package client

import (
	"strings"
	"time"

	"aggify/internal/engine"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
	"aggify/internal/wire"
)

// DefaultFetchSize is the rows-per-round-trip batch size (JDBC default-ish).
const DefaultFetchSize = 128

// Conn is a client connection to a server, with traffic metering.
type Conn struct {
	tr      Transport
	profile wire.Profile
	// FetchSize is the maximum rows pulled per round trip, the first batch
	// in the query's own reply included.
	FetchSize int

	prints []string // PRINT output of the last Exec
}

// Connect opens an in-process connection (its own server session) with the
// given network profile. Traffic is priced by the virtual meter using the
// exact frame sizes the TCP protocol would move.
func Connect(eng *engine.Engine, profile wire.Profile) *Conn {
	return NewConn(newInproc(eng), profile)
}

// Dial opens a connection to a running aggifyd server. The meter counts
// real socket bytes.
func Dial(addr string, profile wire.Profile) (*Conn, error) {
	tr, err := dialSocket(addr)
	if err != nil {
		return nil, err
	}
	return NewConn(tr, profile), nil
}

// NewConn wraps a transport in the driver API.
func NewConn(tr Transport, profile wire.Profile) *Conn {
	return &Conn{tr: tr, profile: profile, FetchSize: DefaultFetchSize}
}

// Close releases the connection (and, over a socket, announces the
// disconnect to the server).
func (c *Conn) Close() error { return c.tr.Close() }

// Session exposes the server session when it lives in-process (nil for
// socket connections; used for statistics in benchmarks).
func (c *Conn) Session() *engine.Session { return c.tr.Session() }

// Meter returns the accumulated traffic totals.
func (c *Conn) Meter() wire.Meter { return c.tr.Meter() }

// ResetMeter clears the traffic totals.
func (c *Conn) ResetMeter() { c.tr.ResetMeter() }

// NetworkTime returns the virtual network time for the accumulated traffic.
func (c *Conn) NetworkTime() time.Duration {
	m := c.tr.Meter()
	return m.NetworkTime(c.profile)
}

// Exec sends a script (DDL, DML, procedure definitions) to the server and
// executes it in one round trip. The reply carries any PRINT output (see
// Prints) and result sets; both are metered.
func (c *Conn) Exec(src string) error {
	_, err := c.ExecResults(src)
	return err
}

// ExecResults is Exec returning the full reply: PRINT output plus the
// result sets of any top-level SELECTs in the script.
func (c *Conn) ExecResults(src string) (*wire.ExecResult, error) {
	res, err := c.tr.Exec(src)
	if err != nil {
		c.prints = nil
		return nil, err
	}
	c.prints = res.Prints
	return res, nil
}

// Prints returns the PRINT output of the last successful Exec.
func (c *Conn) Prints() []string { return c.prints }

// fetchSize is FetchSize, or DefaultFetchSize when it is not positive.
func (c *Conn) fetchSize() int {
	if c.FetchSize <= 0 {
		return DefaultFetchSize
	}
	return c.FetchSize
}

// Stmt is a prepared statement.
type Stmt struct {
	conn *Conn
	id   uint32
}

// Prepare sends a SELECT with optional '?' placeholders to the server for
// preparation. One round trip: the statement text travels once; executions
// then send only parameters.
func (c *Conn) Prepare(src string) (*Stmt, error) {
	id, err := c.tr.Prepare(src)
	if err != nil {
		return nil, err
	}
	return &Stmt{conn: c, id: id}, nil
}

// Query executes the statement with the given parameter values and opens a
// server-side cursor over the result. The server runs the query to
// completion and its reply already carries the first FetchSize rows; the
// client fetches the rest in FetchSize batches, one round trip per batch.
// An n-row result costs max(1, ceil(n/FetchSize)) round trips, and one
// that fits in the first batch owes nothing on Close.
func (s *Stmt) Query(args ...sqltypes.Value) (*Rows, error) {
	cursorID, cols, rows, done, err := s.conn.tr.Query(s.id, args, s.conn.fetchSize())
	if err != nil {
		return nil, err
	}
	return &Rows{conn: s.conn, cols: cols, cursor: cursorID, buf: rows, pos: -1, done: done}, nil
}

// QueryRow runs the statement and decodes the single result row (nil when
// empty).
func (s *Stmt) QueryRow(args ...sqltypes.Value) ([]sqltypes.Value, error) {
	rs, err := s.Query(args...)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	if !rs.Next() {
		return nil, rs.Err()
	}
	return rs.Row(), nil
}

// Rows is a client-side result cursor (the ResultSet of Figure 2) backed by
// a server-side cursor.
type Rows struct {
	conn   *Conn
	cols   []string
	cursor uint32
	buf    [][]sqltypes.Value // current batch
	pos    int                // position within buf
	done   bool               // server cursor exhausted (and released)
	closed bool
	err    error
}

// Next advances to the next row, fetching the next batch over the wire when
// the local buffer is exhausted.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.pos+1 < len(r.buf) {
		r.pos++
		return true
	}
	if r.done {
		return false
	}
	rows, done, err := r.conn.tr.Fetch(r.cursor, r.conn.fetchSize())
	if err != nil {
		r.err = err
		r.done = true
		return false
	}
	r.buf, r.pos, r.done = rows, 0, done
	if len(rows) == 0 {
		r.pos = -1
		return false
	}
	return true
}

// Err returns the first error hit while iterating.
func (r *Rows) Err() error { return r.err }

// Row returns the current row.
func (r *Rows) Row() []sqltypes.Value { return r.buf[r.pos] }

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// ordinal finds a column by name.
func (r *Rows) ordinal(name string) int {
	name = strings.ToLower(name)
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Value returns the named column of the current row (NULL for unknown
// names, mirroring lenient driver accessors).
func (r *Rows) Value(name string) sqltypes.Value {
	i := r.ordinal(name)
	if i < 0 {
		return sqltypes.Null
	}
	return r.buf[r.pos][i]
}

// Float64 returns the named column as float64 (0 for NULL).
func (r *Rows) Float64(name string) float64 {
	f, _ := r.Value(name).AsFloat()
	return f
}

// Int64 returns the named column as int64 (0 for NULL).
func (r *Rows) Int64(name string) int64 {
	i, _ := r.Value(name).AsInt()
	return i
}

// String returns the named column as a string ("" for NULL).
func (r *Rows) String(name string) string {
	v := r.Value(name)
	if v.IsNull() {
		return ""
	}
	return v.Display()
}

// Close releases the cursor. Closing before exhaustion sends a CloseCursor
// message so the server frees the cursor, and the remaining unfetched rows
// are never transferred — like closing a JDBC ResultSet early. Exhausted
// cursors were already released by the reply that finished them (the
// query's own, for a result that fits in one batch), so Close is free.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.done {
		return nil
	}
	return r.conn.tr.CloseCursor(r.cursor)
}

// ServerStats exposes the server session's I/O statistics snapshot (zero
// over socket connections, where the session is remote).
func (c *Conn) ServerStats() storage.Snapshot {
	if s := c.tr.Session(); s != nil {
		return s.Stats.Snapshot()
	}
	return storage.Snapshot{}
}

// ServerMetrics fetches the server's query-metrics snapshot (request
// counters, traffic totals, latency percentiles, slow-query log) in one
// round trip. Socket connections only: the in-process transport has no
// server registry and returns an error.
func (c *Conn) ServerMetrics() (*wire.ServerStats, error) {
	return c.tr.ServerStats()
}
