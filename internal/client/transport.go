package client

import (
	"fmt"

	"aggify/internal/engine"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// Transport carries protocol requests to a server and meters the traffic.
// Two implementations exist: the in-process transport (a server backend in
// the same address space, with bytes priced by encoding the exact frames a
// socket would carry) and the socket transport (a live aggifyd over TCP,
// with bytes counted off the real frames). Because both price the same
// frames, the virtual meter is byte-for-byte comparable to a loopback
// capture.
type Transport interface {
	// Exec runs a script batch, returning PRINT output and result sets.
	Exec(src string) (*wire.ExecResult, error)
	// Prepare registers a single SELECT and returns its statement id.
	Prepare(src string) (uint32, error)
	// Query opens a server-side cursor over a prepared statement's result
	// and returns its first batch of at most maxRows rows in the same round
	// trip; done reports that batch the whole result (the cursor already
	// released server-side).
	Query(stmtID uint32, args []sqltypes.Value, maxRows int) (cursorID uint32, cols []string, rows [][]sqltypes.Value, done bool, err error)
	// Fetch pulls the next batch; done reports the cursor exhausted (and
	// released server-side).
	Fetch(cursorID uint32, maxRows int) (rows [][]sqltypes.Value, done bool, err error)
	// CloseCursor releases a cursor early.
	CloseCursor(cursorID uint32) error
	// ServerStats fetches the server's query-metrics snapshot. Only the
	// socket transport supports it: the in-process transport has a backend
	// but no server, so there is no registry to report.
	ServerStats() (*wire.ServerStats, error)
	// Close tears the connection down.
	Close() error
	// Meter returns the accumulated traffic totals.
	Meter() wire.Meter
	// ResetMeter clears the traffic totals.
	ResetMeter()
	// Session exposes the server session when it lives in-process (nil over
	// a socket).
	Session() *engine.Session
}

// inproc is the virtual-network transport: requests hit a server backend
// directly, and the meter charges the byte-exact frame sizes the socket
// transport would move for the same exchange.
type inproc struct {
	b     *server.Backend
	meter wire.Meter
}

// newInproc wraps a fresh backend session on the engine.
func newInproc(eng *engine.Engine) *inproc {
	return &inproc{b: server.NewBackend(eng)}
}

// charge accounts one request/response exchange, pricing both directions as
// frames. Errors travel as MsgError frames carrying their text.
func (t *inproc) charge(reqBody int, respBody int, err error) {
	t.meter.RoundTrips++
	t.meter.BytesToServer += int64(wire.FrameSize(reqBody))
	if err != nil {
		respBody = len(err.Error())
	}
	t.meter.BytesToClient += int64(wire.FrameSize(respBody))
}

func (t *inproc) Exec(src string) (*wire.ExecResult, error) {
	res, err := t.b.Exec(src)
	respBody := 0
	if err == nil {
		respBody = len(wire.EncodeExecResult(res))
		t.meter.RowsTransferred += res.RowCount()
	}
	t.charge(len(src), respBody, err)
	return res, err
}

func (t *inproc) Prepare(src string) (uint32, error) {
	id, err := t.b.Prepare(src)
	respBody := 0
	if err == nil {
		respBody = len(wire.EncodeStmtResp(id))
	}
	t.charge(len(src), respBody, err)
	return id, err
}

func (t *inproc) Query(stmtID uint32, args []sqltypes.Value, maxRows int) (uint32, []string, [][]sqltypes.Value, bool, error) {
	curID, cols, rows, done, err := t.b.QueryBatch(stmtID, args, maxRows)
	respBody := 0
	if err == nil {
		respBody = len(wire.EncodeCursorBatchResp(curID, cols, rows, done))
		t.meter.RowsTransferred += int64(len(rows))
	}
	t.charge(len(wire.EncodeQueryBatchReq(stmtID, args, maxRows)), respBody, err)
	return curID, cols, rows, done, err
}

func (t *inproc) Fetch(cursorID uint32, maxRows int) ([][]sqltypes.Value, bool, error) {
	rows, done, err := t.b.Fetch(cursorID, maxRows)
	respBody := 0
	if err == nil {
		respBody = len(wire.EncodeRowsResp(rows, done))
		t.meter.RowsTransferred += int64(len(rows))
	}
	t.charge(len(wire.EncodeFetchReq(cursorID, maxRows)), respBody, err)
	return rows, done, err
}

func (t *inproc) CloseCursor(cursorID uint32) error {
	err := t.b.CloseCursor(cursorID)
	t.charge(len(wire.EncodeCloseReq(cursorID)), 0, err)
	return err
}

func (t *inproc) ServerStats() (*wire.ServerStats, error) {
	return nil, fmt.Errorf("client: server stats require a socket connection (in-process transport has no server)")
}

func (t *inproc) Close() error {
	t.b.Close()
	return nil
}

func (t *inproc) Meter() wire.Meter        { return t.meter }
func (t *inproc) ResetMeter()              { t.meter = wire.Meter{} }
func (t *inproc) Session() *engine.Session { return t.b.Session() }
