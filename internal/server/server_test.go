package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
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

// startServer serves a fresh engine on loopback and returns it with a
// dialable address. opts run before the listener opens (set thresholds,
// install hooks); Cleanup drains the server.
func startServer(t *testing.T, opts ...func(*server.Server)) (*engine.Engine, *server.Server, string) {
	t.Helper()
	// Registered before the shutdown cleanup below, so it runs after it
	// (cleanups are LIFO): no connection handler may survive the drain.
	testutil.VerifyNoLeaks(t)
	eng := engine.New()
	interp.Install(eng)
	srv := server.New(eng)
	for _, o := range opts {
		o(srv)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != server.ErrServerClosed {
			t.Errorf("serve returned %v", err)
		}
	})
	return eng, srv, lis.Addr().String()
}

func TestServerQueryOverTCP(t *testing.T) {
	_, _, addr := startServer(t)
	conn, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Exec(`
create table nums (n int, label varchar(10));
insert into nums values (1, 'one'), (2, 'two'), (3, null);
print 'loaded';
`); err != nil {
		t.Fatal(err)
	}
	if p := conn.Prints(); len(p) != 1 || p[0] != "loaded" {
		t.Fatalf("prints = %v", p)
	}
	stmt, err := conn.Prepare("select n, label from nums where n >= ? order by n")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stmt.Query(sqltypes.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	var ns []int64
	var labels []string
	for rs.Next() {
		ns = append(ns, rs.Int64("n"))
		labels = append(labels, rs.String("label"))
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if fmt.Sprint(ns) != "[2 3]" || fmt.Sprint(labels) != "[two ]" {
		t.Fatalf("ns=%v labels=%q", ns, labels)
	}
	// Server-side errors come back as protocol errors, connection survives.
	if _, err := conn.Prepare("not sql at all"); err == nil {
		t.Fatal("expected parse error")
	}
	bad, err := conn.Prepare("select * from missing_table")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Query(); err == nil {
		t.Fatal("expected error for missing table")
	}
	if _, err := stmt.Query(sqltypes.NewInt(1)); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

// TestRemovedSessionOptionFailsCleanly: SET MAXDOP is gone with the parallel
// path, so a client that still sends it gets an error reply — not a panic
// and not silent acceptance — and the connection keeps serving.
func TestRemovedSessionOptionFailsCleanly(t *testing.T) {
	_, _, addr := startServer(t)
	conn, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = conn.Exec("SET MAXDOP = 4")
	if err == nil || !strings.Contains(err.Error(), "expected variable after SET") {
		t.Fatalf("SET MAXDOP = 4: err = %v, want a parse error", err)
	}
	stmt, err := conn.Prepare("select 1")
	if err != nil {
		t.Fatalf("connection unusable after the error: %v", err)
	}
	rs, err := stmt.Query()
	if err != nil {
		t.Fatalf("connection unusable after the error: %v", err)
	}
	defer rs.Close()
	if !rs.Next() {
		t.Fatalf("select 1 returned no row: %v", rs.Err())
	}
}

func TestServerCursorReleasedOnEarlyClose(t *testing.T) {
	_, srv, addr := startServer(t)
	conn, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Exec("create table t (n int)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := conn.Exec("insert into t values (1),(2),(3),(4),(5)"); err != nil {
			t.Fatal(err)
		}
	}
	conn.FetchSize = 10
	stmt, err := conn.Prepare("select n from t")
	if err != nil {
		t.Fatal(err)
	}
	conn.ResetMeter()
	rs, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	rs.Next()
	if got := srv.OpenCursors(); got != 1 {
		t.Fatalf("open cursors = %d, want 1", got)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.OpenCursors(); got != 0 {
		t.Fatalf("open cursors after close = %d, want 0", got)
	}
	// Only the first batch crossed the socket; the other 90 rows never did.
	if got := conn.Meter().RowsTransferred; got != 10 {
		t.Fatalf("rows transferred = %d, want 10", got)
	}
	// Exhausting a cursor releases it without an explicit close.
	rs2, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs2.Next() {
		n++
	}
	if n != 100 {
		t.Fatalf("rows = %d", n)
	}
	if got := srv.OpenCursors(); got != 0 {
		t.Fatalf("open cursors after exhaustion = %d, want 0", got)
	}
	if err := rs2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualMeterMatchesSocketBytes runs the same workload over the
// in-process virtual meter and a live socket and requires identical byte
// and round-trip counts — the virtual §10.6 series priced against reality.
func TestVirtualMeterMatchesSocketBytes(t *testing.T) {
	eng, _, addr := startServer(t)
	setup := client.Connect(eng, wire.LAN)
	if err := setup.Exec(`
create table inv (id int, roi float);
insert into inv values (7, 0.10), (7, 0.05), (7, -0.02), (8, 0.01);
`); err != nil {
		t.Fatal(err)
	}

	workload := func(conn *client.Conn) wire.Meter {
		t.Helper()
		conn.ResetMeter()
		if err := conn.Exec("print 'hello'; select id from inv where id = 8;"); err != nil {
			t.Fatal(err)
		}
		stmt, err := conn.Prepare("select roi from inv where id = ?")
		if err != nil {
			t.Fatal(err)
		}
		rs, err := stmt.Query(sqltypes.NewInt(7))
		if err != nil {
			t.Fatal(err)
		}
		for rs.Next() {
		}
		rs.Close()
		// An error reply is metered too.
		conn.Exec("select broken from nowhere")
		return conn.Meter()
	}

	virtual := workload(client.Connect(eng, wire.LAN))
	sock, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	real := workload(sock)
	if virtual != real {
		t.Fatalf("virtual meter %+v != socket meter %+v", virtual, real)
	}
	if virtual.RowsTransferred != 4 { // 1 exec result row + 3 fetched
		t.Fatalf("rows transferred = %d", virtual.RowsTransferred)
	}
}

// TestConcurrentClients exercises the engine under many simultaneous
// connections (run with -race).
func TestConcurrentClients(t *testing.T) {
	eng, _, addr := startServer(t)
	setup := client.Connect(eng, wire.LAN)
	if err := setup.Exec(`
create table shared (k int, v int);
insert into shared values (1, 10), (2, 20), (3, 30);
create aggregate sumsq(@x int) returns int as
begin
  fields (@acc int);
  init begin set @acc = 0; end
  accumulate begin set @acc = @acc + @x * @x; end
  terminate begin return @acc; end
end
`); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := client.Dial(addr, wire.LAN)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			// Session-private temp table: no cross-connection interference.
			if err := conn.Exec(fmt.Sprintf(`
create table #mine (n int);
insert into #mine values (%d);
`, w)); err != nil {
				errs <- err
				return
			}
			stmt, err := conn.Prepare("select sumsq(v) from shared where k <= ?")
			if err != nil {
				errs <- err
				return
			}
			mine, err := conn.Prepare("select n from #mine")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 25; i++ {
				row, err := stmt.QueryRow(sqltypes.NewInt(3))
				if err != nil {
					errs <- err
					return
				}
				if got, _ := row[0].AsInt(); got != 1400 {
					errs <- fmt.Errorf("worker %d: sumsq = %d", w, got)
					return
				}
				row, err = mine.QueryRow()
				if err != nil {
					errs <- err
					return
				}
				if got, _ := row[0].AsInt(); got != int64(w) {
					errs <- fmt.Errorf("worker %d read %d from its temp table", w, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	srv := server.New(eng)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	conn, err := client.Dial(lis.Addr().String(), wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Exec("create table t (n int); insert into t values (1);"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != server.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	// The drained connection is closed: further requests fail rather than
	// hang.
	if err := conn.Exec("select n from t"); err == nil {
		t.Fatal("request after shutdown must fail")
	}
	// New connections are refused.
	if _, err := client.Dial(lis.Addr().String(), wire.LAN); err == nil {
		t.Fatal("dial after shutdown must fail")
	}
}

// TestTraceProcedureOverWire drives the `\profile` / TRACE PROCEDURE path
// end to end: the profile report for a cursor-loop procedure arrives as a
// result set over TCP and carries the aggify_candidate verdict.
func TestTraceProcedureOverWire(t *testing.T) {
	_, _, addr := startServer(t)
	conn, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Exec(`
create table nums (n int);
insert into nums values (1), (2), (3), (4);
GO
create procedure sumNums() as
begin
  declare @n int;
  declare @s int = 0;
  declare c cursor for select n from nums order by n;
  open c;
  fetch next from c into @n;
  while @@fetch_status = 0
  begin
    set @s = @s + @n;
    fetch next from c into @n;
  end
  close c;
  deallocate c;
  print @s;
end
`); err != nil {
		t.Fatal(err)
	}
	res, err := conn.ExecResults("trace procedure sumNums;")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || len(res.Sets[0].Columns) != 1 || res.Sets[0].Columns[0] != "profile" {
		t.Fatalf("profile result shape = %+v", res.Sets)
	}
	var lines []string
	for _, row := range res.Sets[0].Rows {
		lines = append(lines, row[0].Str())
	}
	report := strings.Join(lines, "\n")
	for _, want := range []string{"cursor loop c:", "iterations=4", "rows_fetched=4", "aggify_candidate=true", "time_share="} {
		if !strings.Contains(report, want) {
			t.Fatalf("profile over the wire missing %q:\n%s", want, report)
		}
	}
	// The procedure really ran server-side.
	if p := res.Prints; len(p) != 1 || p[0] != "10" {
		t.Fatalf("prints = %v, want [10]", p)
	}
}

// TestDebugEndpoints pins the debug mux: /healthz liveness, /metrics
// Prometheus exposition, the pprof index, and no /traces endpoint.
func TestDebugEndpoints(t *testing.T) {
	_, srv, addr := startServer(t)
	conn, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Exec("create table t (n int); insert into t values (1)"); err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.Prepare("select n from t where n >= ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(sqltypes.NewInt(0)); err != nil {
		t.Fatal(err)
	}

	h := srv.DebugHandler()
	get := func(path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		b, _ := io.ReadAll(w.Result().Body)
		return w.Code, string(b)
	}

	code, body := get("/healthz")
	if code != 200 || strings.TrimSpace(body) != `{"status":"ok"}` {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"aggifyd_requests_total",
		"aggifyd_execs_total",
		"aggifyd_queries_total",
		"aggifyd_request_latency_p50_micros",
		"# TYPE aggifyd_requests_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, _ := get("/traces"); code != 404 {
		t.Fatalf("/traces = %d, want 404 (the span tracer is gone)", code)
	}

	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}
