package server_test

import (
	"encoding/binary"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// rawSession dials the server, runs setup and prepares query over the raw
// protocol, returning the connection and the statement id.
func rawSession(t *testing.T, addr, setup, query string) (net.Conn, uint32) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if setup != "" {
		typ, body := rawRoundTrip(t, c, wire.MsgExec, []byte(setup))
		mustOK(t, typ, body, wire.MsgResults)
	}
	typ, body := rawRoundTrip(t, c, wire.MsgPrepare, []byte(query))
	stmtID, err := wire.DecodeStmtResp(mustOK(t, typ, body, wire.MsgStmt))
	if err != nil {
		t.Fatal(err)
	}
	return c, stmtID
}

// rawQuery sends a MsgQuery body and decodes the whole MsgCursor reply.
func rawQuery(t *testing.T, c net.Conn, body []byte) (uint32, [][]sqltypes.Value, bool) {
	t.Helper()
	typ, resp := rawRoundTrip(t, c, wire.MsgQuery, body)
	curID, _, rows, done, err := wire.DecodeCursorBatchResp(mustOK(t, typ, resp, wire.MsgCursor))
	if err != nil {
		t.Fatal(err)
	}
	return curID, rows, done
}

// panicsTotal reads aggifyd_panics_total off the server's /metrics.
func panicsTotal(t *testing.T, srv *server.Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "aggifyd_panics_total "); ok {
			return v
		}
	}
	t.Fatal("/metrics has no aggifyd_panics_total")
	return ""
}

// TestBareQueryRequestCarriesNoRows: a MsgQuery body without the trailing
// first-batch size (EncodeQueryReq) reads as size 0. The reply is a cursor
// with an empty batch, not done, even for an empty result, and the rows
// come with MsgFetch as before.
func TestBareQueryRequestCarriesNoRows(t *testing.T) {
	_, srv, addr := startServer(t)
	c, stmtID := rawSession(t, addr, "create table t (n int); insert into t values (1),(2),(3);", "select n from t where n <= ?")
	for _, n := range []int64{3, 0} {
		curID, rows, done := rawQuery(t, c, wire.EncodeQueryReq(stmtID, []sqltypes.Value{sqltypes.NewInt(n)}))
		if len(rows) != 0 || done {
			t.Fatalf("n=%d: bare query replied with %d rows, done=%v", n, len(rows), done)
		}
		if got := srv.OpenCursors(); got != 1 {
			t.Fatalf("n=%d: open cursors = %d, want 1", n, got)
		}
		typ, body := rawRoundTrip(t, c, wire.MsgFetch, wire.EncodeFetchReq(curID, 100))
		rows, done, err := wire.DecodeRowsResp(mustOK(t, typ, body, wire.MsgRows))
		if err != nil || !done || int64(len(rows)) != n {
			t.Fatalf("n=%d: fetch rows=%d done=%v err=%v", n, len(rows), done, err)
		}
		if got := srv.OpenCursors(); got != 0 {
			t.Fatalf("n=%d: open cursors = %d after the last fetch", n, got)
		}
	}
}

// TestFetchHugeMaxRowsClamped: after a first batch, a MsgFetch asking for
// MaxInt64 rows returns the rest with done. c.pos + maxRows once wrapped
// negative there and panicked, which the server counted and logged as an
// internal fault for what is only a large request.
func TestFetchHugeMaxRowsClamped(t *testing.T) {
	_, srv, addr := startServer(t)
	c, stmtID := rawSession(t, addr, "create table t (n int); insert into t values (1),(2),(3),(4),(5);", "select n from t order by n")
	curID, rows, done := rawQuery(t, c, wire.EncodeQueryBatchReq(stmtID, nil, 2))
	if len(rows) != 2 || done {
		t.Fatalf("first batch: %d rows, done=%v", len(rows), done)
	}
	typ, body := rawRoundTrip(t, c, wire.MsgFetch, wire.EncodeFetchReq(curID, math.MaxInt64))
	rows, done, err := wire.DecodeRowsResp(mustOK(t, typ, body, wire.MsgRows))
	if err != nil || !done || len(rows) != 3 || rows[0][0].Int() != 3 || rows[2][0].Int() != 5 {
		t.Fatalf("huge fetch: rows=%v done=%v err=%v", rows, done, err)
	}
	if got := srv.OpenCursors(); got != 0 {
		t.Fatalf("open cursors = %d after the last fetch", got)
	}
	if got := panicsTotal(t, srv); got != "0" {
		t.Fatalf("aggifyd_panics_total = %s, want 0", got)
	}
}

// TestHostileQueryCountsDrawErrors sends MsgQuery bodies whose counts
// promise far more than the frame holds. Sizing a slice off such a count
// asked for terabytes, a fatal out-of-memory no recover can contain; now
// each draws MsgError and the connection keeps serving.
func TestHostileQueryCountsDrawErrors(t *testing.T) {
	_, srv, addr := startServer(t)
	c, stmtID := rawSession(t, addr, "", "select 1 as one")
	const huge = 1 << 40
	id := binary.AppendUvarint(nil, uint64(stmtID))
	bodies := []struct {
		name, want string
		body       []byte
	}{
		// The 12-byte frame: header, type, statement id, arity 1<<40.
		{"row arity", "row arity", binary.AppendUvarint(append([]byte(nil), id...), huge)},
		// One parameter, a tuple of arity 1<<40.
		{"tuple arity", "tuple arity", binary.AppendUvarint(append(append([]byte(nil), id...), 1, byte(sqltypes.KindTuple)), huge)},
		// An empty parameter row, then a first-batch size cut short.
		{"batch size", "truncated", append(append([]byte(nil), id...), 0, 0x80)},
	}
	for _, tc := range bodies {
		typ, resp := rawRoundTrip(t, c, wire.MsgQuery, tc.body)
		if typ != wire.MsgError || !strings.Contains(string(resp), tc.want) {
			t.Fatalf("%s: reply 0x%02x %q, want an error naming %q", tc.name, byte(typ), resp, tc.want)
		}
		_, rows, done := rawQuery(t, c, wire.EncodeQueryBatchReq(stmtID, nil, 10))
		if len(rows) != 1 || !done || rows[0][0].Int() != 1 {
			t.Fatalf("%s: query after the error: rows=%v done=%v", tc.name, rows, done)
		}
	}
	if got := panicsTotal(t, srv); got != "0" {
		t.Fatalf("aggifyd_panics_total = %s, want 0", got)
	}
}
