package client_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"aggify/internal/client"
	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/testutil"
	"aggify/internal/wire"
)

func newServer(t *testing.T) *engine.Engine {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	eng := engine.New()
	interp.Install(eng)
	return eng
}

func TestClientQueryLoop(t *testing.T) {
	eng := newServer(t)
	conn := client.Connect(eng, wire.LAN)
	if err := conn.Exec(`
create table monthly_investments (investor_id int, start_date date, roi float);
insert into monthly_investments values
 (7, '2020-01-01', 0.10), (7, '2020-02-01', 0.05), (7, '2020-03-01', -0.02),
 (8, '2020-01-01', 0.01);
`); err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.Prepare("select roi from monthly_investments where investor_id = ? and start_date >= ?")
	if err != nil {
		t.Fatal(err)
	}
	conn.ResetMeter()
	rs, err := stmt.Query(sqltypes.NewInt(7), sqltypes.MustDate("2020-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 2 loop.
	cumulative := 1.0
	n := 0
	for rs.Next() {
		cumulative *= rs.Float64("roi") + 1
		n++
	}
	cumulative -= 1
	rs.Close()
	if n != 3 {
		t.Fatalf("rows = %d", n)
	}
	want := 1.10*1.05*0.98 - 1
	if d := cumulative - want; d > 1e-12 || d < -1e-12 {
		t.Fatalf("cumulative = %v, want %v", cumulative, want)
	}
	m := conn.Meter()
	if m.RowsTransferred != 3 {
		t.Fatalf("rows transferred = %d", m.RowsTransferred)
	}
	if m.RoundTrips != 1 { // the query's reply carries all three rows
		t.Fatalf("round trips = %d, want 1", m.RoundTrips)
	}
	if m.BytesToClient <= 0 || m.BytesToServer <= 0 {
		t.Fatalf("meter = %+v", m)
	}
}

func TestFetchBatching(t *testing.T) {
	eng := newServer(t)
	conn := client.Connect(eng, wire.LAN)
	if err := conn.Exec("create table nums (n int);"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := conn.Exec("insert into nums values (1),(2),(3),(4),(5),(6),(7),(8),(9),(10);"); err != nil {
			t.Fatal(err)
		}
	}
	conn.FetchSize = 10
	stmt, err := conn.Prepare("select n from nums")
	if err != nil {
		t.Fatal(err)
	}
	conn.ResetMeter()
	rs, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for rs.Next() {
		count++
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	m := conn.Meter()
	// The query's reply carries the first batch, then 9 fetch batches.
	if m.RoundTrips != 10 {
		t.Fatalf("round trips = %d, want 10", m.RoundTrips)
	}
	// Early close skips transfer of remaining rows.
	conn.ResetMeter()
	rs, _ = stmt.Query()
	rs.Next()
	rs.Close()
	if got := conn.Meter().RowsTransferred; got != 10 { // one batch
		t.Fatalf("early close transferred %d rows", got)
	}
}

func TestNetworkTimeDeterministic(t *testing.T) {
	eng := newServer(t)
	prof := wire.Profile{RTT: time.Millisecond, Bandwidth: 1_000_000}
	conn := client.Connect(eng, prof)
	if err := conn.Exec("create table t (a int); insert into t values (1);"); err != nil {
		t.Fatal(err)
	}
	m := conn.Meter()
	want := time.Duration(m.RoundTrips)*time.Millisecond +
		time.Duration(float64(m.TotalBytes())/1_000_000*float64(time.Second))
	if got := conn.NetworkTime(); got != want {
		t.Fatalf("network time = %v, want %v", got, want)
	}
}

func TestAggifiedClientProgramMovesLessData(t *testing.T) {
	// The Figure 8 pattern: ship the aggregate + one query, get one row.
	eng := newServer(t)
	setup := client.Connect(eng, wire.LAN)
	if err := setup.Exec(`
create table monthly_investments (investor_id int, start_date date, roi float);
`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := setup.Exec(`insert into monthly_investments values
 (7, '2020-01-01', 0.01),(7, '2020-01-02', 0.02),(7, '2020-01-03', 0.03),
 (7, '2020-01-04', 0.01),(7, '2020-01-05', 0.0)`); err != nil {
			t.Fatal(err)
		}
	}

	// Original: iterate all rows on the client.
	orig := client.Connect(eng, wire.LAN)
	stmt, err := orig.Prepare("select roi from monthly_investments where investor_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	orig.ResetMeter()
	rs, err := stmt.Query(sqltypes.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	cum := 1.0
	for rs.Next() {
		cum *= rs.Float64("roi") + 1
	}
	cum -= 1

	// Rewritten: register the Figure 6 aggregate, run one query.
	agg := client.Connect(eng, wire.LAN)
	if err := agg.Exec(`
create aggregate CumulativeROIAgg(@monthlyROI float, @p_cum float) returns float as
begin
  fields (@cum float, @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false
    begin
      set @cum = @p_cum;
      set @isInitialized = true;
    end
    set @cum = @cum * (@monthlyROI + 1);
  end
  terminate begin return @cum; end
end`); err != nil {
		t.Fatal(err)
	}
	stmt2, err := agg.Prepare("select CumulativeROIAgg(q.roi, 1.0) from (select roi from monthly_investments where investor_id = ?) q")
	if err != nil {
		t.Fatal(err)
	}
	agg.ResetMeter()
	row, err := stmt2.QueryRow(sqltypes.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	got := row[0].Float() - 1

	if d := got - cum; d > 1e-9 || d < -1e-9 {
		t.Fatalf("results differ: %v vs %v", got, cum)
	}
	if agg.Meter().BytesToClient*10 > orig.Meter().BytesToClient {
		t.Fatalf("aggified moved %d bytes vs original %d — expected >10x reduction",
			agg.Meter().BytesToClient, orig.Meter().BytesToClient)
	}
	if agg.Meter().RowsTransferred != 1 {
		t.Fatalf("aggified transferred %d rows", agg.Meter().RowsTransferred)
	}
}

// TestExecMetersReplyPayload pins the Exec reply metering: PRINT output,
// result-set rows, and error text all count toward bytes-to-client instead
// of a flat per-request constant.
func TestExecMetersReplyPayload(t *testing.T) {
	eng := newServer(t)
	conn := client.Connect(eng, wire.LAN)

	big := strings.Repeat("x", 2000)
	conn.ResetMeter()
	if err := conn.Exec("print '" + big + "'"); err != nil {
		t.Fatal(err)
	}
	if got := conn.Meter().BytesToClient; got < 2000 {
		t.Fatalf("PRINT reply metered at %d bytes, want >= 2000", got)
	}
	if p := conn.Prints(); len(p) != 1 || p[0] != big {
		t.Fatalf("prints = %d entries", len(p))
	}

	// A script's result sets travel to the client and are metered.
	if err := conn.Exec("create table t (s varchar(100)); insert into t values ('" + big[:90] + "');"); err != nil {
		t.Fatal(err)
	}
	conn.ResetMeter()
	if err := conn.Exec("select s from t"); err != nil {
		t.Fatal(err)
	}
	if got := conn.Meter(); got.BytesToClient < 90 || got.RowsTransferred != 1 {
		t.Fatalf("result-set reply metered at %+v", got)
	}

	// Error text is the reply payload of a failed request.
	conn.ResetMeter()
	err := conn.Exec("select nosuchcol from " + strings.Repeat("long_missing_table_name", 10))
	if err == nil {
		t.Fatal("expected error")
	}
	if got := conn.Meter().BytesToClient; got < int64(len(err.Error())) {
		t.Fatalf("error reply metered at %d bytes, text is %d", got, len(err.Error()))
	}
}

// TestEarlyCloseNeverTransfersUnfetched asserts — on both transports —
// that closing a result set early releases the server-side cursor and the
// unfetched rows never cross the wire.
func TestEarlyCloseNeverTransfersUnfetched(t *testing.T) {
	eng := newServer(t)
	setup := client.Connect(eng, wire.LAN)
	if err := setup.Exec("create table nums (n int)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := setup.Exec("insert into nums values (1),(2),(3),(4),(5),(6),(7),(8),(9),(10)"); err != nil {
			t.Fatal(err)
		}
	}

	srv := server.New(eng)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	transports := map[string]func() *client.Conn{
		"inproc": func() *client.Conn { return client.Connect(eng, wire.LAN) },
		"socket": func() *client.Conn {
			conn, err := client.Dial(lis.Addr().String(), wire.LAN)
			if err != nil {
				t.Fatal(err)
			}
			return conn
		},
	}
	meters := map[string]wire.Meter{}
	for name, open := range transports {
		conn := open()
		conn.FetchSize = 10
		stmt, err := conn.Prepare("select n from nums")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.ResetMeter()
		rs, err := stmt.Query()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rs.Next() {
			t.Fatalf("%s: no rows", name)
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		m := conn.Meter()
		if m.RowsTransferred != 10 {
			t.Fatalf("%s: transferred %d rows, want one batch of 10", name, m.RowsTransferred)
		}
		// The query (its reply carries the first batch) and one cursor
		// close, nothing else.
		if m.RoundTrips != 2 {
			t.Fatalf("%s: round trips = %d, want 2", name, m.RoundTrips)
		}
		meters[name] = m
		conn.Close()
	}
	if srv.OpenCursors() != 0 {
		t.Fatalf("server still holds %d cursors", srv.OpenCursors())
	}
	if meters["inproc"] != meters["socket"] {
		t.Fatalf("virtual meter %+v != socket meter %+v", meters["inproc"], meters["socket"])
	}
}

// TestZeroRowResult covers the empty result set: the query's reply reports
// done with no rows.
func TestZeroRowResult(t *testing.T) {
	eng := newServer(t)
	setup := client.Connect(eng, wire.LAN)
	if err := setup.Exec("create table empty_t (n int)"); err != nil {
		t.Fatal(err)
	}
	conn := client.Connect(eng, wire.LAN)
	stmt, err := conn.Prepare("select n from empty_t")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Next() {
		t.Fatal("Next on empty result must be false")
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := conn.Meter().RowsTransferred; got != 0 {
		t.Fatalf("rows transferred = %d", got)
	}
}

func TestPrepareErrors(t *testing.T) {
	eng := newServer(t)
	conn := client.Connect(eng, wire.LAN)
	if _, err := conn.Prepare("insert into t values (1)"); err == nil {
		t.Fatal("Prepare of non-SELECT must error")
	}
	if _, err := conn.Prepare("select 1; select 2;"); err == nil {
		t.Fatal("Prepare of multiple statements must error")
	}
	if _, err := conn.Prepare("not sql"); err == nil {
		t.Fatal("Prepare of garbage must error")
	}
}
