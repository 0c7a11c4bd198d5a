package client

import (
	"bufio"
	"fmt"
	"net"

	"aggify/internal/engine"
	"aggify/internal/sqltypes"
	"aggify/internal/wire"
)

// socket is the real-network transport: a live aggifyd connection whose
// meter counts the actual frame bytes written to and read from the TCP
// stream.
type socket struct {
	c     net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	meter wire.Meter
}

// dialSocket connects to an aggifyd server.
func dialSocket(addr string) (*socket, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newSocket(c), nil
}

// newSocket wraps an established connection (loopback tests use net.Pipe-
// style pairs as well as TCP).
func newSocket(c net.Conn) *socket {
	return &socket{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

// roundTrip sends one request frame and reads the response frame, counting
// real bytes in both directions. MsgError responses become errors carrying
// the server's text.
func (t *socket) roundTrip(typ wire.MsgType, body []byte) (wire.MsgType, []byte, error) {
	n, err := wire.WriteFrame(t.bw, typ, body)
	if err == nil {
		err = t.bw.Flush()
	}
	if err != nil {
		return 0, nil, err
	}
	t.meter.RoundTrips++
	t.meter.BytesToServer += int64(n)
	respT, respB, rn, err := wire.ReadFrame(t.br)
	t.meter.BytesToClient += int64(rn)
	if err != nil {
		return 0, nil, err
	}
	if respT == wire.MsgError {
		return respT, nil, fmt.Errorf("%s", respB)
	}
	return respT, respB, nil
}

func (t *socket) expect(typ wire.MsgType, body []byte, want wire.MsgType) ([]byte, error) {
	respT, respB, err := t.roundTrip(typ, body)
	if err != nil {
		return nil, err
	}
	if respT != want {
		return nil, fmt.Errorf("client: unexpected response type 0x%02x (want 0x%02x)", byte(respT), byte(want))
	}
	return respB, nil
}

func (t *socket) Exec(src string) (*wire.ExecResult, error) {
	body, err := t.expect(wire.MsgExec, []byte(src), wire.MsgResults)
	if err != nil {
		return nil, err
	}
	res, err := wire.DecodeExecResult(body)
	if err != nil {
		return nil, err
	}
	t.meter.RowsTransferred += res.RowCount()
	return res, nil
}

func (t *socket) Prepare(src string) (uint32, error) {
	body, err := t.expect(wire.MsgPrepare, []byte(src), wire.MsgStmt)
	if err != nil {
		return 0, err
	}
	return wire.DecodeStmtResp(body)
}

func (t *socket) Query(stmtID uint32, args []sqltypes.Value, maxRows int) (uint32, []string, [][]sqltypes.Value, bool, error) {
	body, err := t.expect(wire.MsgQuery, wire.EncodeQueryBatchReq(stmtID, args, maxRows), wire.MsgCursor)
	if err != nil {
		return 0, nil, nil, false, err
	}
	curID, cols, rows, done, err := wire.DecodeCursorBatchResp(body)
	if err != nil {
		return 0, nil, nil, false, err
	}
	t.meter.RowsTransferred += int64(len(rows))
	return curID, cols, rows, done, nil
}

func (t *socket) Fetch(cursorID uint32, maxRows int) ([][]sqltypes.Value, bool, error) {
	body, err := t.expect(wire.MsgFetch, wire.EncodeFetchReq(cursorID, maxRows), wire.MsgRows)
	if err != nil {
		return nil, false, err
	}
	rows, done, err := wire.DecodeRowsResp(body)
	if err != nil {
		return nil, false, err
	}
	t.meter.RowsTransferred += int64(len(rows))
	return rows, done, nil
}

func (t *socket) CloseCursor(cursorID uint32) error {
	_, err := t.expect(wire.MsgCloseCursor, wire.EncodeCloseReq(cursorID), wire.MsgOK)
	return err
}

func (t *socket) ServerStats() (*wire.ServerStats, error) {
	body, err := t.expect(wire.MsgStats, nil, wire.MsgServerStats)
	if err != nil {
		return nil, err
	}
	return wire.DecodeServerStats(body)
}

// Close announces the disconnect (best effort) and closes the socket.
func (t *socket) Close() error {
	t.roundTrip(wire.MsgQuit, nil)
	return t.c.Close()
}

func (t *socket) Meter() wire.Meter        { return t.meter }
func (t *socket) ResetMeter()              { t.meter = wire.Meter{} }
func (t *socket) Session() *engine.Session { return nil }
