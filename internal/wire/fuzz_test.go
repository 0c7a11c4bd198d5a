package wire

import (
	"encoding/binary"
	"runtime"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// bodyDecoders is every message-body decoder, plus the row codec they all
// build on, behind one signature.
var bodyDecoders = []struct {
	name   string
	decode func([]byte)
}{
	{"ExecResult", func(b []byte) { DecodeExecResult(b) }},
	{"QueryReq", func(b []byte) { DecodeQueryReq(b) }},
	{"QueryBatchReq", func(b []byte) { DecodeQueryBatchReq(b) }},
	{"StmtResp", func(b []byte) { DecodeStmtResp(b) }},
	{"CursorResp", func(b []byte) { DecodeCursorResp(b) }},
	{"CursorBatchResp", func(b []byte) { DecodeCursorBatchResp(b) }},
	{"FetchReq", func(b []byte) { DecodeFetchReq(b) }},
	{"RowsResp", func(b []byte) { DecodeRowsResp(b) }},
	{"ServerStats", func(b []byte) { DecodeServerStats(b) }},
	{"CloseReq", func(b []byte) { DecodeCloseReq(b) }},
	{"storage.DecodeRow", func(b []byte) { storage.DecodeRow(b) }},
}

// allocBound is the most one decoder may allocate for a body of n bytes.
// Every value, row and string costs at least one byte of body and at most
// a slice element or string header (24 bytes) plus its own bytes, so the
// decoders stay well inside 64 bytes a byte; the constant covers error
// values and the runtime's own noise.
func allocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// fuzzSeeds returns a body of every message kind, and bodies whose counts
// promise far more than they hold. A count of 1<<20 is enough to break the
// allocation bound if a decoder trusts it, yet small enough to be
// allocated harmlessly if one does.
func fuzzSeeds() [][]byte {
	row := []sqltypes.Value{
		sqltypes.Null, sqltypes.NewInt(-42), sqltypes.NewFloat(2.5), sqltypes.NewBool(true),
		sqltypes.NewString("roi"), sqltypes.NewDate(18262),
		sqltypes.NewTuple([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("x")}),
	}
	rows := [][]sqltypes.Value{row, row[:3], {}}
	cols := []string{"investor_id", "roi"}
	const lie = 1 << 20
	count := func(prefix []byte, n uint64) []byte { return binary.AppendUvarint(append([]byte(nil), prefix...), n) }
	return [][]byte{
		nil,
		EncodeExecResult(&ExecResult{Prints: []string{"hello"}, Sets: []ResultSet{{Columns: cols, Rows: rows}}}),
		EncodeQueryReq(3, row),
		EncodeQueryBatchReq(3, row, 128),
		EncodeQueryBatchReq(3, nil, 1<<62),
		EncodeStmtResp(5),
		EncodeCursorResp(9, cols),
		EncodeCursorBatchResp(9, cols, rows, true),
		EncodeFetchReq(7, 128),
		EncodeRowsResp(rows, false),
		EncodeServerStats(&ServerStats{Requests: 10, P99Micros: 300, Slow: []SlowQuery{{Micros: 5, Summary: "QUERY stmt=1", Fingerprint: 7, Count: 2}}}),
		EncodeCloseReq(12),
		storage.AppendRow(nil, row),
		count(nil, lie),                                 // row arity, string count
		count([]byte{1, byte(sqltypes.KindTuple)}, lie), // tuple arity
		count([]byte{0}, lie),                           // rows body: row count
		count([]byte{0, 0}, lie),                        // exec result: result-set count
		count(EncodeCursorResp(1, nil)[:3], lie),        // cursor: first-batch row count
		count(make([]byte, 12), lie),                    // server stats: slow-query entries
	}
}

// FuzzWireDecoders feeds arbitrary bodies to every decoder. None may panic,
// and none may allocate more than allocBound of the body: a count read off
// the wire is checked against the bytes left before it sizes anything, so
// a few hostile bytes cannot ask for terabytes (a fatal out-of-memory that
// no recover contains). The seeds run in plain go test; CI fuzzes for a
// bounded time with -fuzz FuzzWireDecoders.
func FuzzWireDecoders(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var ms runtime.MemStats
		for _, d := range bodyDecoders {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			d.decode(body)
			runtime.ReadMemStats(&ms)
			if got, limit := ms.TotalAlloc-before, allocBound(len(body)); got > limit {
				t.Fatalf("%s allocated %d bytes for a %d-byte body (bound %d)", d.name, got, len(body), limit)
			}
		}
	})
}
