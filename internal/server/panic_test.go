package server_test

import (
	"bytes"
	"log"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aggify/internal/client"
	"aggify/internal/exec"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// boomAgg is a native aggregate whose Step panics, standing in for any bug
// below the dispatch boundary.
type boomAgg struct{}

func (boomAgg) Reset()                                   {}
func (boomAgg) Step(*exec.Ctx, []sqltypes.Value) error   { panic("boom in accumulate") }
func (boomAgg) Result(*exec.Ctx) (sqltypes.Value, error) { return sqltypes.Null, nil }
func (boomAgg) Merge(exec.Aggregator) error              { return nil }

// TestPanicContainedPerConnection panics inside a registered native
// aggregate on one connection, inside an explicit transaction, while a
// second connection keeps getting answers: the panicking request gets a wire
// error, its transaction is rolled back, the fault is counted and logged
// with the statement fingerprint, and both connections keep serving.
func TestPanicContainedPerConnection(t *testing.T) {
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	eng, srv, addr := startServer(t, func(s *server.Server) {
		s.ErrorLog = log.New(lockedWriter{&logMu, &logBuf}, "", 0)
	})
	if err := eng.RegisterAggregateSpec(&exec.AggSpec{Name: "boom", New: func() exec.Aggregator { return boomAgg{} }}); err != nil {
		t.Fatal(err)
	}
	bad, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	good, err := client.Dial(addr, wire.LAN)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Exec("create table pt (n int); insert into pt values (1), (2), (3);"); err != nil {
		t.Fatal(err)
	}

	// The second connection answers throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := good.Exec("declare @c int = (select count(*) from pt where n >= 1);"); err != nil {
				t.Errorf("healthy connection failed: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 5; i++ {
		err := bad.Exec("begin transaction; insert into pt values (99); declare @x int = (select boom(n) from pt);")
		if err == nil || !strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), "boom in accumulate") {
			t.Fatalf("panicking request: err = %v, want a contained internal error", err)
		}
		// Same connection, next request: served, and the transaction the
		// panic interrupted is gone.
		if err := bad.Exec("begin transaction; commit;"); err != nil {
			t.Fatalf("connection unusable after contained panic: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	stmt, err := good.Prepare("select count(*) from pt where n = 99")
	if err != nil {
		t.Fatal(err)
	}
	if row, err := stmt.QueryRow(); err != nil || row[0].Int() != 0 {
		t.Errorf("rows of the rolled-back transactions: %v (err %v), want 0", row, err)
	}
	w := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(w.Body.String(), "\naggifyd_panics_total 5\n") {
		t.Errorf("/metrics does not report aggifyd_panics_total 5")
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "panic serving exec fingerprint=") || !strings.Contains(logged, "boom in accumulate") {
		t.Errorf("panic not logged with its fingerprint:\n%s", logged)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
