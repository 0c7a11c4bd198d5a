package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"aggify/internal/sqltypes"
)

// randValue draws a random value, biased toward NULLs to cover NULL-heavy
// rows.
func randValue(rng *rand.Rand) sqltypes.Value {
	switch rng.Intn(7) {
	case 0, 1:
		return sqltypes.Null
	case 2:
		return sqltypes.NewInt(rng.Int63n(1 << 40))
	case 3:
		return sqltypes.NewFloat(rng.NormFloat64() * 1e6)
	case 4:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	case 5:
		return sqltypes.NewDate(rng.Int63n(50000))
	default:
		n := rng.Intn(40)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte('a' + rng.Intn(26)))
		}
		return sqltypes.NewString(sb.String())
	}
}

func randRows(rng *rand.Rand, nrows, ncols int) [][]sqltypes.Value {
	rows := make([][]sqltypes.Value, nrows)
	for i := range rows {
		rows[i] = make([]sqltypes.Value, ncols)
		for j := range rows[i] {
			rows[i][j] = randValue(rng)
		}
	}
	return rows
}

func rowsEqual(t *testing.T, got, want [][]sqltypes.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity = %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if g.IsNull() != w.IsNull() || (!g.IsNull() && !sqltypes.Equal(g, w)) {
				t.Fatalf("row %d col %d = %v, want %v", i, j, g, w)
			}
		}
	}
}

// pipeFrames sends each (type, body) pair through a net.Pipe and returns
// what the reader decoded, checking the byte counts agree on both ends.
func pipeFrames(t *testing.T, frames []struct {
	typ  MsgType
	body []byte
}) []struct {
	typ  MsgType
	body []byte
} {
	t.Helper()
	cw, cr := net.Pipe()
	type result struct {
		typ  MsgType
		body []byte
		n    int
		err  error
	}
	results := make(chan result, len(frames))
	go func() {
		for range frames {
			typ, body, n, err := ReadFrame(cr)
			results <- result{typ, body, n, err}
		}
	}()
	var out []struct {
		typ  MsgType
		body []byte
	}
	for _, f := range frames {
		wn, err := WriteFrame(cw, f.typ, f.body)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		r := <-results
		if r.err != nil {
			t.Fatalf("read: %v", r.err)
		}
		if r.n != wn || wn != FrameSize(len(f.body)) {
			t.Fatalf("byte counts: wrote %d, read %d, want %d", wn, r.n, FrameSize(len(f.body)))
		}
		out = append(out, struct {
			typ  MsgType
			body []byte
		}{r.typ, r.body})
	}
	cw.Close()
	cr.Close()
	return out
}

func TestFrameRoundTripOverPipe(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var frames []struct {
		typ  MsgType
		body []byte
	}
	frames = append(frames, struct {
		typ  MsgType
		body []byte
	}{MsgQuit, nil}) // empty body
	for i := 0; i < 50; i++ {
		body := make([]byte, rng.Intn(4096))
		rng.Read(body)
		frames = append(frames, struct {
			typ  MsgType
			body []byte
		}{MsgType(rng.Intn(250) + 1), body})
	}
	got := pipeFrames(t, frames)
	for i, f := range frames {
		if got[i].typ != f.typ || !bytes.Equal(got[i].body, f.body) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// A header declaring a payload beyond MaxFrame must be rejected before
	// any payload is read (or allocated).
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized read err = %v", err)
	}
	// Writing an oversized body must fail rather than emit a frame the
	// peer will reject.
	if _, err := WriteFrame(io.Discard, MsgExec, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write must error")
	}
	// Zero-length payloads (no type byte) are malformed.
	var zero [4]byte
	if _, _, _, err := ReadFrame(bytes.NewReader(zero[:])); err == nil {
		t.Fatal("empty frame must error")
	}
}

func TestRowsRespRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		rows := randRows(rng, rng.Intn(20), 1+rng.Intn(6))
		done := rng.Intn(2) == 0
		body := EncodeRowsResp(rows, done)
		got, gotDone, err := DecodeRowsResp(body)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if gotDone != done {
			t.Fatalf("iter %d: done = %v, want %v", iter, gotDone, done)
		}
		rowsEqual(t, got, rows)
	}
}

func TestRowsRespZeroRows(t *testing.T) {
	body := EncodeRowsResp(nil, true)
	rows, done, err := DecodeRowsResp(body)
	if err != nil || !done || len(rows) != 0 {
		t.Fatalf("rows=%v done=%v err=%v", rows, done, err)
	}
}

func TestQueryReqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		id := rng.Uint32()
		args := randRows(rng, 1, rng.Intn(5)+1)[0]
		if rng.Intn(4) == 0 {
			args = nil // parameterless execution
		}
		gotID, gotArgs, err := DecodeQueryReq(EncodeQueryReq(id, args))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if gotID != id {
			t.Fatalf("iter %d: id = %d, want %d", iter, gotID, id)
		}
		rowsEqual(t, [][]sqltypes.Value{gotArgs}, [][]sqltypes.Value{args})
	}
}

func TestExecResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		res := &ExecResult{}
		for i := rng.Intn(4); i > 0; i-- {
			res.Prints = append(res.Prints, "print line with unicode Ω and tabs\t")
		}
		for i := rng.Intn(3); i > 0; i-- {
			ncols := 1 + rng.Intn(4)
			cols := make([]string, ncols)
			for j := range cols {
				cols[j] = "c" + string(rune('a'+j))
			}
			res.Sets = append(res.Sets, ResultSet{Columns: cols, Rows: randRows(rng, rng.Intn(10), ncols)})
		}
		got, err := DecodeExecResult(EncodeExecResult(res))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !reflect.DeepEqual(got.Prints, res.Prints) && !(len(got.Prints) == 0 && len(res.Prints) == 0) {
			t.Fatalf("iter %d: prints = %v, want %v", iter, got.Prints, res.Prints)
		}
		if len(got.Sets) != len(res.Sets) {
			t.Fatalf("iter %d: sets = %d, want %d", iter, len(got.Sets), len(res.Sets))
		}
		for i := range res.Sets {
			if !reflect.DeepEqual(got.Sets[i].Columns, res.Sets[i].Columns) {
				t.Fatalf("iter %d: set %d columns mismatch", iter, i)
			}
			rowsEqual(t, got.Sets[i].Rows, res.Sets[i].Rows)
		}
		if got.RowCount() != res.RowCount() {
			t.Fatalf("iter %d: row count %d vs %d", iter, got.RowCount(), res.RowCount())
		}
	}
}

func TestCursorAndFetchAndCloseRoundTrip(t *testing.T) {
	id, cols, err := DecodeCursorResp(EncodeCursorResp(9, []string{"a", "b"}))
	if err != nil || id != 9 || !reflect.DeepEqual(cols, []string{"a", "b"}) {
		t.Fatalf("cursor: id=%d cols=%v err=%v", id, cols, err)
	}
	cid, n, err := DecodeFetchReq(EncodeFetchReq(7, 128))
	if err != nil || cid != 7 || n != 128 {
		t.Fatalf("fetch: id=%d n=%d err=%v", cid, n, err)
	}
	sid, err := DecodeStmtResp(EncodeStmtResp(3))
	if err != nil || sid != 3 {
		t.Fatalf("stmt: id=%d err=%v", sid, err)
	}
	ccid, err := DecodeCloseReq(EncodeCloseReq(12))
	if err != nil || ccid != 12 {
		t.Fatalf("close: id=%d err=%v", ccid, err)
	}
}

func TestTruncatedBodiesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	full := EncodeRowsResp(randRows(rng, 5, 3), false)
	for cut := 1; cut < len(full); cut += 7 {
		if _, _, err := DecodeRowsResp(full[:cut]); err == nil {
			// A prefix that happens to decode as fewer rows is impossible:
			// the count prefix promises more data than remains.
			t.Fatalf("truncated body at %d decoded without error", cut)
		}
	}
	if _, err := DecodeExecResult([]byte{}); err == nil {
		t.Fatal("empty exec result must error")
	}
	if _, _, err := DecodeQueryReq([]byte{}); err == nil {
		t.Fatal("empty query req must error")
	}
}

// TestQueryBatchReqRoundTrip: the first-batch size survives the round
// trip; a size of 0 is the bare EncodeQueryReq body, byte for byte, and a
// missing size decodes as 0; a size beyond MaxInt saturates.
func TestQueryBatchReqRoundTrip(t *testing.T) {
	args := []sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewString("x")}
	for _, n := range []int{0, 1, 127, 128, 1 << 40} {
		id, gotArgs, got, err := DecodeQueryBatchReq(EncodeQueryBatchReq(4, args, n))
		if err != nil || id != 4 || got != n {
			t.Fatalf("n=%d: id=%d n=%d err=%v", n, id, got, err)
		}
		rowsEqual(t, [][]sqltypes.Value{gotArgs}, [][]sqltypes.Value{args})
	}
	if !bytes.Equal(EncodeQueryReq(4, args), EncodeQueryBatchReq(4, args, 0)) {
		t.Fatal("EncodeQueryReq must be the max-rows-0 body")
	}
	if _, _, n, err := DecodeQueryBatchReq(EncodeQueryReq(4, args)); err != nil || n != 0 {
		t.Fatalf("bare body: n=%d err=%v", n, err)
	}
	huge := binary.AppendUvarint(EncodeQueryReq(4, nil), 1<<64-1)
	if _, _, n, err := DecodeQueryBatchReq(huge); err != nil || n != math.MaxInt {
		t.Fatalf("huge size: n=%d err=%v", n, err)
	}
	if _, n, err := DecodeFetchReq(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<64-1)); err != nil || n != math.MaxInt {
		t.Fatalf("huge fetch: n=%d err=%v", n, err)
	}
}

// TestCursorBatchRespRoundTrip: the first batch and done flag survive the
// round trip; EncodeCursorResp is the empty, not-done batch; and
// DecodeCursorResp reads the head of a body that carries rows.
func TestCursorBatchRespRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cols := []string{"a", "b"}
	for _, n := range []int{0, 1, 9} {
		for _, done := range []bool{false, true} {
			rows := randRows(rng, n, len(cols))
			body := EncodeCursorBatchResp(5, cols, rows, done)
			id, gotCols, got, gotDone, err := DecodeCursorBatchResp(body)
			if err != nil || id != 5 || !reflect.DeepEqual(gotCols, cols) || gotDone != done {
				t.Fatalf("n=%d done=%v: id=%d cols=%v done=%v err=%v", n, done, id, gotCols, gotDone, err)
			}
			rowsEqual(t, got, rows)
			if id, gotCols, err := DecodeCursorResp(body); err != nil || id != 5 || !reflect.DeepEqual(gotCols, cols) {
				t.Fatalf("head: id=%d cols=%v err=%v", id, gotCols, err)
			}
		}
	}
	if !bytes.Equal(EncodeCursorResp(5, cols), EncodeCursorBatchResp(5, cols, nil, false)) {
		t.Fatal("EncodeCursorResp must be the empty, not-done batch")
	}
	head := EncodeCursorResp(5, cols)
	head = head[:len(head)-2] // id and columns, no done flag or row count
	if _, _, _, _, err := DecodeCursorBatchResp(head); err == nil {
		t.Fatal("a cursor body cut before its batch must not decode")
	}
}
