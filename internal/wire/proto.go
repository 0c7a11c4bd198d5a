package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// Message-body codecs for the aggifyd protocol. Rows and parameter vectors
// reuse the storage row codec (the same encoding worktables spool), so a
// row costs the same bytes on the socket as in the engine's §10.6
// data-movement accounting.

// ResultSet is one SELECT's output inside an ExecResult.
type ResultSet struct {
	Columns []string
	Rows    [][]sqltypes.Value
}

// ExecResult is the reply to MsgExec: collected PRINT output plus the
// result sets of any top-level SELECTs in the script.
type ExecResult struct {
	Prints []string
	Sets   []ResultSet
}

// RowCount returns the total rows across all result sets.
func (r *ExecResult) RowCount() int64 {
	var n int64
	for _, s := range r.Sets {
		n += int64(len(s.Rows))
	}
	return n
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || uint64(len(buf)-w) < n {
		return "", nil, fmt.Errorf("wire: truncated string")
	}
	return string(buf[w : w+int(n)]), buf[w+int(n):], nil
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func readStrings(buf []byte) ([]string, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, fmt.Errorf("wire: truncated string list")
	}
	buf = buf[w:]
	// Every string costs at least its length byte, so a count above the
	// bytes left is a lie; checking it first keeps a hostile count from
	// sizing the allocation.
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("wire: string count %d exceeds the %d bytes left", n, len(buf))
	}
	out := make([]string, n)
	var err error
	for i := range out {
		if out[i], buf, err = readString(buf); err != nil {
			return nil, nil, err
		}
	}
	return out, buf, nil
}

func appendRows(buf []byte, rows [][]sqltypes.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = storage.AppendRow(buf, r)
	}
	return buf
}

func readRows(buf []byte) ([][]sqltypes.Value, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, fmt.Errorf("wire: truncated row batch")
	}
	buf = buf[w:]
	// Every row costs at least its arity byte.
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("wire: row count %d exceeds the %d bytes left", n, len(buf))
	}
	rows := make([][]sqltypes.Value, n)
	var err error
	for i := range rows {
		if rows[i], buf, err = storage.DecodeRow(buf); err != nil {
			return nil, nil, err
		}
	}
	return rows, buf, nil
}

// EncodeExecResult encodes the MsgResults body.
func EncodeExecResult(r *ExecResult) []byte {
	buf := appendStrings(nil, r.Prints)
	buf = binary.AppendUvarint(buf, uint64(len(r.Sets)))
	for _, s := range r.Sets {
		buf = appendStrings(buf, s.Columns)
		buf = appendRows(buf, s.Rows)
	}
	return buf
}

// DecodeExecResult decodes the MsgResults body.
func DecodeExecResult(body []byte) (*ExecResult, error) {
	prints, rest, err := readStrings(body)
	if err != nil {
		return nil, err
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, fmt.Errorf("wire: truncated result sets")
	}
	rest = rest[w:]
	// Every set costs at least its column count and its row count.
	if n > uint64(len(rest))/2 {
		return nil, fmt.Errorf("wire: result set count %d exceeds the %d bytes left", n, len(rest))
	}
	res := &ExecResult{Prints: prints, Sets: make([]ResultSet, n)}
	for i := range res.Sets {
		if res.Sets[i].Columns, rest, err = readStrings(rest); err != nil {
			return nil, err
		}
		if res.Sets[i].Rows, rest, err = readRows(rest); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// EncodeQueryReq encodes a MsgQuery body that asks for no rows in the
// reply: EncodeQueryBatchReq with maxRows 0.
func EncodeQueryReq(stmtID uint32, args []sqltypes.Value) []byte {
	return EncodeQueryBatchReq(stmtID, args, 0)
}

// EncodeQueryBatchReq encodes the MsgQuery body: statement id, parameter
// row, then the most rows the MsgCursor reply may carry as its first
// batch. A maxRows of 0 leaves the count out, and a missing count reads
// as 0.
func EncodeQueryBatchReq(stmtID uint32, args []sqltypes.Value, maxRows int) []byte {
	buf := binary.AppendUvarint(nil, uint64(stmtID))
	buf = storage.AppendRow(buf, args)
	if maxRows > 0 {
		buf = binary.AppendUvarint(buf, uint64(maxRows))
	}
	return buf
}

// DecodeQueryReq decodes the MsgQuery body without its first-batch size.
func DecodeQueryReq(body []byte) (uint32, []sqltypes.Value, error) {
	id, args, _, err := DecodeQueryBatchReq(body)
	return id, args, err
}

// DecodeQueryBatchReq decodes the MsgQuery body, reading a missing
// first-batch size as 0.
func DecodeQueryBatchReq(body []byte) (uint32, []sqltypes.Value, int, error) {
	id, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, nil, 0, fmt.Errorf("wire: truncated query request")
	}
	args, rest, err := storage.DecodeRow(body[w:])
	if err != nil {
		return 0, nil, 0, err
	}
	if len(rest) == 0 {
		return uint32(id), args, 0, nil
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return 0, nil, 0, fmt.Errorf("wire: truncated query batch size")
	}
	return uint32(id), args, rowCount(n), nil
}

// rowCount converts a decoded max-rows count to int, saturating at
// math.MaxInt instead of wrapping negative.
func rowCount(n uint64) int {
	if n > math.MaxInt {
		return math.MaxInt
	}
	return int(n)
}

// EncodeStmtResp encodes the MsgStmt body.
func EncodeStmtResp(stmtID uint32) []byte {
	return binary.AppendUvarint(nil, uint64(stmtID))
}

// DecodeStmtResp decodes the MsgStmt body.
func DecodeStmtResp(body []byte) (uint32, error) {
	id, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, fmt.Errorf("wire: truncated statement id")
	}
	return uint32(id), nil
}

// EncodeCursorResp encodes a MsgCursor body whose first batch is empty
// and not done: EncodeCursorBatchResp with no rows.
func EncodeCursorResp(cursorID uint32, cols []string) []byte {
	return EncodeCursorBatchResp(cursorID, cols, nil, false)
}

// EncodeCursorBatchResp encodes the MsgCursor body: cursor id, column
// names, then the first batch laid out as a MsgRows body (done flag + row
// batch). done reports that the batch is the whole result and the cursor
// has been released server-side, so nothing more is owed.
func EncodeCursorBatchResp(cursorID uint32, cols []string, rows [][]sqltypes.Value, done bool) []byte {
	buf := binary.AppendUvarint(nil, uint64(cursorID))
	buf = appendStrings(buf, cols)
	return appendRowsResp(buf, rows, done)
}

// DecodeCursorResp decodes the cursor id and column names of a MsgCursor
// body, ignoring its first batch.
func DecodeCursorResp(body []byte) (uint32, []string, error) {
	id, cols, _, err := decodeCursorHead(body)
	return id, cols, err
}

// DecodeCursorBatchResp decodes the whole MsgCursor body.
func DecodeCursorBatchResp(body []byte) (uint32, []string, [][]sqltypes.Value, bool, error) {
	id, cols, rest, err := decodeCursorHead(body)
	if err != nil {
		return 0, nil, nil, false, err
	}
	rows, done, err := DecodeRowsResp(rest)
	if err != nil {
		return 0, nil, nil, false, err
	}
	return id, cols, rows, done, nil
}

func decodeCursorHead(body []byte) (uint32, []string, []byte, error) {
	id, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, nil, nil, fmt.Errorf("wire: truncated cursor id")
	}
	cols, rest, err := readStrings(body[w:])
	if err != nil {
		return 0, nil, nil, err
	}
	return uint32(id), cols, rest, nil
}

// EncodeFetchReq encodes the MsgFetch body: cursor id + max rows.
func EncodeFetchReq(cursorID uint32, maxRows int) []byte {
	buf := binary.AppendUvarint(nil, uint64(cursorID))
	return binary.AppendUvarint(buf, uint64(maxRows))
}

// DecodeFetchReq decodes the MsgFetch body.
func DecodeFetchReq(body []byte) (uint32, int, error) {
	id, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated fetch request")
	}
	n, w2 := binary.Uvarint(body[w:])
	if w2 <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated fetch count")
	}
	return uint32(id), rowCount(n), nil
}

// EncodeRowsResp encodes the MsgRows body: done flag + row batch. done
// reports that the cursor is exhausted and has been released server-side,
// so no MsgCloseCursor is needed.
func EncodeRowsResp(rows [][]sqltypes.Value, done bool) []byte {
	return appendRowsResp(nil, rows, done)
}

func appendRowsResp(buf []byte, rows [][]sqltypes.Value, done bool) []byte {
	var flag byte
	if done {
		flag = 1
	}
	return appendRows(append(buf, flag), rows)
}

// DecodeRowsResp decodes the MsgRows body.
func DecodeRowsResp(body []byte) ([][]sqltypes.Value, bool, error) {
	if len(body) < 1 {
		return nil, false, fmt.Errorf("wire: truncated rows response")
	}
	rows, _, err := readRows(body[1:])
	if err != nil {
		return nil, false, err
	}
	return rows, body[0] != 0, nil
}

// SlowQuery is one slow-query log entry in a ServerStats snapshot. Entries
// are keyed by statement fingerprint: repeated slow executions of the same
// normalized statement fold into one entry (worst latency, hit count)
// instead of flooding the ring.
type SlowQuery struct {
	// Micros is the worst observed request latency in microseconds.
	Micros int64
	// Summary is a truncated description of the request (normalized
	// statement text or a protocol-level label).
	Summary string
	// Fingerprint is the normalized-statement hash (0 when the request has
	// no statement text, e.g. FETCH).
	Fingerprint uint64
	// Count is how many slow executions folded into this entry.
	Count int64
}

// ServerStats is the server's query-metrics snapshot returned for MsgStats:
// lifetime request counters, traffic totals, an approximate latency
// distribution, and the most recent slow queries.
type ServerStats struct {
	Connections   int64 // connections accepted since start
	Requests      int64 // frames served (all message types)
	Execs         int64 // MsgExec batches
	Queries       int64 // MsgQuery executions
	Fetches       int64 // MsgFetch batches
	CursorsOpened int64 // server-side cursors opened since start
	OpenCursors   int64 // server-side cursors currently open
	BytesIn       int64 // request frame bytes read
	BytesOut      int64 // response frame bytes written
	P50Micros     int64 // approximate median request latency (µs)
	P99Micros     int64 // approximate 99th-percentile request latency (µs)
	SlowCount     int64 // requests over the slow-query threshold
	Slow          []SlowQuery
}

// EncodeServerStats encodes the MsgServerStats body.
func EncodeServerStats(st *ServerStats) []byte {
	buf := binary.AppendUvarint(nil, uint64(st.Connections))
	buf = binary.AppendUvarint(buf, uint64(st.Requests))
	buf = binary.AppendUvarint(buf, uint64(st.Execs))
	buf = binary.AppendUvarint(buf, uint64(st.Queries))
	buf = binary.AppendUvarint(buf, uint64(st.Fetches))
	buf = binary.AppendUvarint(buf, uint64(st.CursorsOpened))
	buf = binary.AppendUvarint(buf, uint64(st.OpenCursors))
	buf = binary.AppendUvarint(buf, uint64(st.BytesIn))
	buf = binary.AppendUvarint(buf, uint64(st.BytesOut))
	buf = binary.AppendUvarint(buf, uint64(st.P50Micros))
	buf = binary.AppendUvarint(buf, uint64(st.P99Micros))
	buf = binary.AppendUvarint(buf, uint64(st.SlowCount))
	buf = binary.AppendUvarint(buf, uint64(len(st.Slow)))
	for _, sq := range st.Slow {
		buf = binary.AppendUvarint(buf, uint64(sq.Micros))
		buf = appendString(buf, sq.Summary)
		buf = binary.AppendUvarint(buf, sq.Fingerprint)
		buf = binary.AppendUvarint(buf, uint64(sq.Count))
	}
	return buf
}

// DecodeServerStats decodes the MsgServerStats body.
func DecodeServerStats(body []byte) (*ServerStats, error) {
	st := &ServerStats{}
	fields := []*int64{
		&st.Connections, &st.Requests, &st.Execs, &st.Queries, &st.Fetches,
		&st.CursorsOpened, &st.OpenCursors, &st.BytesIn, &st.BytesOut,
		&st.P50Micros, &st.P99Micros, &st.SlowCount,
	}
	for _, f := range fields {
		v, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, fmt.Errorf("wire: truncated server stats")
		}
		*f = int64(v)
		body = body[w:]
	}
	n, w := binary.Uvarint(body)
	if w <= 0 {
		return nil, fmt.Errorf("wire: truncated slow-query log")
	}
	body = body[w:]
	// Every entry costs at least four bytes: micros, summary length,
	// fingerprint and count.
	if n > uint64(len(body))/4 {
		return nil, fmt.Errorf("wire: slow-query entry count %d exceeds the %d bytes left", n, len(body))
	}
	st.Slow = make([]SlowQuery, n)
	for i := range st.Slow {
		us, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, fmt.Errorf("wire: truncated slow-query entry")
		}
		st.Slow[i].Micros = int64(us)
		var err error
		if st.Slow[i].Summary, body, err = readString(body[w:]); err != nil {
			return nil, err
		}
		fp, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, fmt.Errorf("wire: truncated slow-query entry")
		}
		st.Slow[i].Fingerprint = fp
		body = body[w:]
		cnt, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, fmt.Errorf("wire: truncated slow-query entry")
		}
		st.Slow[i].Count = int64(cnt)
		body = body[w:]
	}
	return st, nil
}

// EncodeCloseReq encodes the MsgCloseCursor body.
func EncodeCloseReq(cursorID uint32) []byte {
	return binary.AppendUvarint(nil, uint64(cursorID))
}

// DecodeCloseReq decodes the MsgCloseCursor body.
func DecodeCloseReq(body []byte) (uint32, error) {
	id, w := binary.Uvarint(body)
	if w <= 0 {
		return 0, fmt.Errorf("wire: truncated close request")
	}
	return uint32(id), nil
}
