package client_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"

	"aggify/internal/client"
	"aggify/internal/engine"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// firstBatchFetch is the FetchSize of the first-batch tests: small, so a
// result of 3×FetchSize rows stays small too.
const firstBatchFetch = 4

// bothTransports serves srv (over eng) on lis and returns the two transports
// the tests compare, each opening a fresh connection with FetchSize set.
func bothTransports(t *testing.T, eng *engine.Engine, srv *server.Server, lis net.Listener) map[string]func() *client.Conn {
	t.Helper()
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	open := func(conn *client.Conn) *client.Conn {
		conn.FetchSize = firstBatchFetch
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	return map[string]func() *client.Conn{
		"inproc": func() *client.Conn { return open(client.Connect(eng, wire.LAN)) },
		"socket": func() *client.Conn {
			conn, err := client.Dial(lis.Addr().String(), wire.LAN)
			if err != nil {
				t.Fatal(err)
			}
			return open(conn)
		},
	}
}

// wantMeter prices "select n from nums where n <= ? order by n" returning
// the n rows 1..n as cursor cur of statement stmt: the MsgQuery exchange,
// whose reply carries the first batch, then one MsgFetch per further batch.
func wantMeter(stmt, cur uint32, n int) wire.Meter {
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i + 1))}
	}
	first := min(n, firstBatchFetch)
	m := wire.Meter{
		RoundTrips:      1,
		BytesToServer:   int64(wire.FrameSize(len(wire.EncodeQueryBatchReq(stmt, []sqltypes.Value{sqltypes.NewInt(int64(n))}, firstBatchFetch)))),
		BytesToClient:   int64(wire.FrameSize(len(wire.EncodeCursorBatchResp(cur, []string{"n"}, rows[:first], first == n)))),
		RowsTransferred: int64(n),
	}
	for pos := first; pos < n; pos += firstBatchFetch {
		hi := min(pos+firstBatchFetch, n)
		m.RoundTrips++
		m.BytesToServer += int64(wire.FrameSize(len(wire.EncodeFetchReq(cur, firstBatchFetch))))
		m.BytesToClient += int64(wire.FrameSize(len(wire.EncodeRowsResp(rows[pos:hi], hi == n))))
	}
	return m
}

// TestFirstBatchRoundTrips: an n-row result costs max(1, ceil(n/FetchSize))
// round trips, every row crosses once, and the meter matches the frames
// priced one by one, the same on the virtual meter and the socket. A
// finished result leaves no cursor open and owes nothing on Close.
func TestFirstBatchRoundTrips(t *testing.T) {
	eng := newServer(t)
	setup := client.Connect(eng, wire.LAN)
	var vals []string
	for i := 1; i <= 3*firstBatchFetch; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	if err := setup.Exec("create table nums (n int); insert into nums values " + strings.Join(vals, ",")); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	transports := bothTransports(t, eng, srv, lis)

	sizes := []int{0, 1, firstBatchFetch, firstBatchFetch + 1, 3 * firstBatchFetch}
	meters := map[string][]wire.Meter{}
	for _, name := range []string{"inproc", "socket"} {
		conn := transports[name]()
		stmt, err := conn.Prepare("select n from nums where n <= ? order by n")
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range sizes {
			fetches0 := srv.Stats().Fetches
			conn.ResetMeter()
			rs, err := stmt.Query(sqltypes.NewInt(int64(n)))
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			got := 0
			for rs.Next() {
				got++
				if v := rs.Int64("n"); v != int64(got) {
					t.Fatalf("%s n=%d: row %d = %d", name, n, got, v)
				}
			}
			if err := rs.Err(); err != nil || got != n {
				t.Fatalf("%s n=%d: read %d rows, err %v", name, n, got, err)
			}
			if err := rs.Close(); err != nil {
				t.Fatal(err)
			}
			m := conn.Meter()
			// Statement 1, cursor i+1: ids count up per connection.
			if want := wantMeter(1, uint32(i+1), n); m != want {
				t.Errorf("%s n=%d: meter %+v, want %+v", name, n, m, want)
			}
			if want := int64(max(1, (n+firstBatchFetch-1)/firstBatchFetch)); m.RoundTrips != want {
				t.Errorf("%s n=%d: round trips = %d, want %d", name, n, m.RoundTrips, want)
			}
			if name == "socket" {
				if open := srv.OpenCursors(); open != 0 {
					t.Errorf("socket n=%d: %d cursors left open after a finished result", n, open)
				}
				// aggifyd_fetches_total counts the MsgFetch frames only.
				if d := srv.Stats().Fetches - fetches0; d != m.RoundTrips-1 {
					t.Errorf("socket n=%d: %d fetches counted, want %d", n, d, m.RoundTrips-1)
				}
			}
			meters[name] = append(meters[name], m)
		}
	}
	for i, n := range sizes {
		if meters["inproc"][i] != meters["socket"][i] {
			t.Errorf("n=%d: virtual meter %+v != socket meter %+v", n, meters["inproc"][i], meters["socket"][i])
		}
	}
}

// TestQueryErrorOneRoundTrip: a query that fails at execution draws one
// error reply, priced alike on both transports, opens no cursor, and the
// connection keeps serving.
func TestQueryErrorOneRoundTrip(t *testing.T) {
	eng := newServer(t)
	srv := server.New(eng)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	transports := bothTransports(t, eng, srv, lis)
	meters := map[string]wire.Meter{}
	for _, name := range []string{"inproc", "socket"} {
		conn := transports[name]()
		// Names resolve at query time, so preparing succeeds.
		stmt, err := conn.Prepare("select n from not_there")
		if err != nil {
			t.Fatal(err)
		}
		conn.ResetMeter()
		if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "not_there") {
			t.Fatalf("%s: query error = %v", name, err)
		}
		m := conn.Meter()
		if m.RoundTrips != 1 || m.RowsTransferred != 0 {
			t.Errorf("%s: failed query metered %+v, want one round trip and no rows", name, m)
		}
		meters[name] = m
		if srv.OpenCursors() != 0 {
			t.Errorf("%s: a failed query left %d cursors open", name, srv.OpenCursors())
		}
		ok, err := conn.Prepare("select 1 as one")
		if err != nil {
			t.Fatal(err)
		}
		if row, err := ok.QueryRow(); err != nil || row[0].Int() != 1 {
			t.Fatalf("%s: connection after a query error: %v %v", name, row, err)
		}
	}
	if meters["inproc"] != meters["socket"] {
		t.Fatalf("virtual meter %+v != socket meter %+v", meters["inproc"], meters["socket"])
	}
}

// TestHostileReplyCountsDrawErrors: a reply whose column, row or PRINT
// line count promises far more than its frame holds fails the call with an
// error instead of sizing a slice off the count.
func TestHostileReplyCountsDrawErrors(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	const huge = 1 << 40
	cols := binary.AppendUvarint(binary.AppendUvarint(nil, 1), huge)
	rows := binary.AppendUvarint(append(append(binary.AppendUvarint(nil, 1), 1, 1, 'n'), 0), huge)
	prints := binary.AppendUvarint(nil, huge)
	cursors := [][]byte{cols, rows}
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			typ, _, _, err := wire.ReadFrame(c)
			if err != nil {
				return
			}
			switch typ {
			case wire.MsgPrepare:
				wire.WriteFrame(c, wire.MsgStmt, wire.EncodeStmtResp(1))
			case wire.MsgQuery:
				wire.WriteFrame(c, wire.MsgCursor, cursors[0])
				cursors = cursors[1:]
			case wire.MsgExec:
				wire.WriteFrame(c, wire.MsgResults, prints)
			default:
				wire.WriteFrame(c, wire.MsgOK, nil)
				return
			}
		}
	}()
	conn, err := client.Dial(lis.Addr().String(), wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.Prepare("select n from t")
	if err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"string count", "row count"} {
		if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("hostile %s: err = %v", what, err)
		}
	}
	if err := conn.Exec("select 1"); err == nil || !strings.Contains(err.Error(), "string count") {
		t.Errorf("hostile PRINT count: err = %v", err)
	}
	conn.Close()
	<-served
}
