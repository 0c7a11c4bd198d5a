package server_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"aggify/internal/client"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/server"
	"aggify/internal/wire"
)

// rawRoundTrip drives the binary protocol over a bare net.Conn, for tests
// that need protocol-level control the driver API hides (abrupt drops,
// fetches on released cursors).
func rawRoundTrip(t *testing.T, c net.Conn, typ wire.MsgType, body []byte) (wire.MsgType, []byte) {
	t.Helper()
	if _, err := wire.WriteFrame(c, typ, body); err != nil {
		t.Fatal(err)
	}
	respT, respB, _, err := wire.ReadFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	return respT, respB
}

func mustOK(t *testing.T, typ wire.MsgType, body []byte, want wire.MsgType) []byte {
	t.Helper()
	if typ == wire.MsgError {
		t.Fatalf("server error: %s", body)
	}
	if typ != want {
		t.Fatalf("response type 0x%02x, want 0x%02x", byte(typ), byte(want))
	}
	return body
}

func TestDroppedConnectionReleasesCursors(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	typ, body := rawRoundTrip(t, c, wire.MsgExec,
		[]byte("create table t (n int); insert into t values (1),(2),(3),(4),(5);"))
	mustOK(t, typ, body, wire.MsgResults)
	typ, body = rawRoundTrip(t, c, wire.MsgPrepare, []byte("select n from t"))
	stmtID, err := wire.DecodeStmtResp(mustOK(t, typ, body, wire.MsgStmt))
	if err != nil {
		t.Fatal(err)
	}
	// Open two cursors and fetch only partially: both stay open server-side.
	for i := 0; i < 2; i++ {
		typ, body = rawRoundTrip(t, c, wire.MsgQuery, wire.EncodeQueryReq(stmtID, nil))
		curID, _, err := wire.DecodeCursorResp(mustOK(t, typ, body, wire.MsgCursor))
		if err != nil {
			t.Fatal(err)
		}
		typ, body = rawRoundTrip(t, c, wire.MsgFetch, wire.EncodeFetchReq(curID, 2))
		mustOK(t, typ, body, wire.MsgRows)
	}
	if got := srv.OpenCursors(); got != 2 {
		t.Fatalf("open cursors = %d, want 2", got)
	}
	// Drop the TCP connection without MsgQuit or MsgCloseCursor: the
	// server's connection teardown must return the gauge to zero.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.OpenCursors() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("open cursors stuck at %d after connection drop", srv.OpenCursors())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFetchOnReleasedCursorFailsClearly(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	typ, body := rawRoundTrip(t, c, wire.MsgExec,
		[]byte("create table t (n int); insert into t values (1),(2);"))
	mustOK(t, typ, body, wire.MsgResults)
	typ, body = rawRoundTrip(t, c, wire.MsgPrepare, []byte("select n from t"))
	stmtID, err := wire.DecodeStmtResp(mustOK(t, typ, body, wire.MsgStmt))
	if err != nil {
		t.Fatal(err)
	}
	typ, body = rawRoundTrip(t, c, wire.MsgQuery, wire.EncodeQueryReq(stmtID, nil))
	curID, _, err := wire.DecodeCursorResp(mustOK(t, typ, body, wire.MsgCursor))
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the cursor: done=true auto-releases it server-side.
	typ, body = rawRoundTrip(t, c, wire.MsgFetch, wire.EncodeFetchReq(curID, 100))
	rows, done, err := wire.DecodeRowsResp(mustOK(t, typ, body, wire.MsgRows))
	if err != nil || !done || len(rows) != 2 {
		t.Fatalf("fetch: rows=%d done=%v err=%v", len(rows), done, err)
	}
	// A further FETCH must fail with a released-cursor error — a protocol
	// error frame, not a codec failure or a generic unknown-id message.
	typ, body = rawRoundTrip(t, c, wire.MsgFetch, wire.EncodeFetchReq(curID, 100))
	if typ != wire.MsgError {
		t.Fatalf("fetch on released cursor: response type 0x%02x, want MsgError", byte(typ))
	}
	if !strings.Contains(string(body), "already released") {
		t.Fatalf("error %q should say the cursor was already released", body)
	}
	// A never-issued id is a different failure.
	typ, body = rawRoundTrip(t, c, wire.MsgFetch, wire.EncodeFetchReq(9999, 1))
	if typ != wire.MsgError || !strings.Contains(string(body), "unknown cursor") {
		t.Fatalf("fetch on unknown cursor: type=0x%02x err=%q", byte(typ), body)
	}
	// The connection survives protocol errors.
	typ, body = rawRoundTrip(t, c, wire.MsgQuery, wire.EncodeQueryReq(stmtID, nil))
	mustOK(t, typ, body, wire.MsgCursor)
}

// TestTraceFlaggedFrameRejected: bit 0x40 once flagged a request carrying a
// 16-byte trace-context prefix (docs/PROTOCOL.md). The bit is reserved now,
// so such a frame is an unknown message type: the server answers MsgError
// and keeps the connection serving.
func TestTraceFlaggedFrameRejected(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prefix := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2} // trace id 1, span id 2
	typ, body := rawRoundTrip(t, c, wire.MsgExec|0x40, append(prefix, "select 1"...))
	if typ != wire.MsgError {
		t.Fatalf("flagged frame: response type 0x%02x, want MsgError", byte(typ))
	}
	if !strings.Contains(string(body), "unknown message type 0x41") {
		t.Fatalf("flagged frame error %q should name the unknown type 0x41", body)
	}
	typ, body = rawRoundTrip(t, c, wire.MsgExec, []byte("select 1"))
	res, err := wire.DecodeExecResult(mustOK(t, typ, body, wire.MsgResults))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || len(res.Sets[0].Rows) != 1 || res.Sets[0].Rows[0][0].Display() != "1" {
		t.Fatalf("select 1 after the rejected frame = %+v", res.Sets)
	}
}

func TestServerMetricsOverSocket(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	srv := server.New(eng)
	srv.SlowThreshold = time.Nanosecond // everything is slow
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	}()

	conn, err := client.Dial(lis.Addr().String(), wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Exec("create table t (n int); insert into t values (1),(2),(3);"); err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.Prepare("select n from t order by n")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	for rs.Next() {
	}
	rs.Close()

	st, err := conn.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if st.Connections != 1 {
		t.Errorf("connections = %d", st.Connections)
	}
	// The query's reply carried all three rows: no MsgFetch was sent.
	if st.Execs != 1 || st.Queries != 1 || st.Fetches != 0 {
		t.Errorf("execs=%d queries=%d fetches=%d", st.Execs, st.Queries, st.Fetches)
	}
	if st.CursorsOpened != 1 || st.OpenCursors != 0 {
		t.Errorf("cursors opened=%d open=%d", st.CursorsOpened, st.OpenCursors)
	}
	if st.BytesIn <= 0 || st.BytesOut <= 0 {
		t.Errorf("bytes in=%d out=%d", st.BytesIn, st.BytesOut)
	}
	// Requests so far: exec + prepare + query; the stats request itself is
	// recorded after its own reply is assembled.
	if st.Requests != 3 {
		t.Errorf("requests = %d", st.Requests)
	}
	if st.P50Micros <= 0 || st.P99Micros < st.P50Micros {
		t.Errorf("p50=%d p99=%d", st.P50Micros, st.P99Micros)
	}
	if st.SlowCount != 3 || len(st.Slow) == 0 {
		t.Errorf("slow count=%d entries=%d", st.SlowCount, len(st.Slow))
	}
	var sawExec bool
	for _, sq := range st.Slow {
		if strings.Contains(sq.Summary, "create table t") {
			sawExec = true
		}
	}
	if !sawExec {
		t.Errorf("slow log %v should contain the exec script", st.Slow)
	}
	// Round trip through the codec is loss-free (server-side view matches
	// what the client decoded, modulo requests recorded since).
	direct := srv.Stats()
	if direct.Execs != st.Execs || direct.CursorsOpened != st.CursorsOpened {
		t.Errorf("direct stats %+v != wire stats %+v", direct, st)
	}

	// The in-process transport has no server registry: asking for server
	// metrics must fail loudly, not return zeros.
	inproc := client.Connect(eng, wire.LAN)
	if _, err := inproc.ServerMetrics(); err == nil {
		t.Error("in-process ServerMetrics must error")
	}
}
