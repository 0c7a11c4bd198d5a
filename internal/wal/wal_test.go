package wal

import (
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// sameRow compares rows value by value, a nil row apart from an empty one.
// reflect.DeepEqual would compare a decoded string's data pointer.
func sameRow(a, b []sqltypes.Value) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, sqltypes.Identical)
}

// sameCheckpoint is reflect.DeepEqual with the slots compared by sameRow.
func sameCheckpoint(a, b *Checkpoint) bool {
	return a.Epoch == b.Epoch && slices.EqualFunc(a.Tables, b.Tables, func(x, y TableImage) bool {
		return x.Name == y.Name && reflect.DeepEqual(x.Cols, y.Cols) &&
			reflect.DeepEqual(x.Indexes, y.Indexes) && slices.EqualFunc(x.Slots, y.Slots, sameRow)
	})
}

func TestRecordRoundTrip(t *testing.T) {
	muts := []txn.Mutation{
		{Table: "orders", Op: txn.MutInsert, Rid: 0, Row: []sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewString("x")}},
		{Table: "orders", Op: txn.MutUpdate, Rid: 3, Row: []sqltypes.Value{sqltypes.NewFloat(1.5), sqltypes.Null}},
		{Table: "orders", Op: txn.MutDelete, Rid: 9},
		{Table: "orders", Op: txn.MutTruncate, Rid: -1},
	}
	rec, err := DecodeRecord(EncodeCommit(42, muts))
	if err != nil {
		t.Fatal(err)
	}
	c, ok := rec.(*CommitRecord)
	if !ok || c.Epoch != 42 || len(c.Muts) != 4 {
		t.Fatalf("decoded %#v", rec)
	}
	// Truncate's rid is normalized to 0 on the wire.
	want := append([]txn.Mutation(nil), muts...)
	want[3].Rid = 0
	if !slices.EqualFunc(c.Muts, want, func(a, b txn.Mutation) bool {
		return a.Table == b.Table && a.Op == b.Op && a.Rid == b.Rid && sameRow(a.Row, b.Row)
	}) {
		t.Fatalf("muts = %v, want %v", c.Muts, want)
	}

	ct, err := DecodeRecord(EncodeCreateTable(7, "t", []ColumnDef{
		{Name: "a", Type: sqltypes.Type{ID: sqltypes.TInt}},
		{Name: "b", Type: sqltypes.Type{ID: sqltypes.TChar, Prec: 12}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r := ct.(*CreateTableRecord); r.Epoch != 7 || r.Name != "t" || len(r.Cols) != 2 ||
		r.Cols[1].Type.Prec != 12 {
		t.Fatalf("create table decoded %#v", ct)
	}

	// The trailing former kind byte is written as 1 and ignored on read:
	// with it, set to 0 (older hash-index records) or missing (logs from
	// before the byte existed), the record decodes the same.
	ci := EncodeCreateIndex(8, "t", "a")
	if ci[len(ci)-1] != 1 {
		t.Fatalf("create index record ends in %d, want 1", ci[len(ci)-1])
	}
	hash := append(append([]byte(nil), ci[:len(ci)-1]...), 0)
	for _, payload := range [][]byte{ci, hash, ci[:len(ci)-1]} {
		dec, err := DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if r := dec.(*CreateIndexRecord); *r != (CreateIndexRecord{Epoch: 8, Table: "t", Column: "a"}) {
			t.Fatalf("create index decoded %#v", dec)
		}
	}

	dt, err := DecodeRecord(EncodeDropTable(9, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if r := dt.(*DropTableRecord); r.Epoch != 9 || r.Name != "t" {
		t.Fatalf("drop table decoded %#v", dt)
	}
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(EncodeCommit(uint64(i+1), []txn.Mutation{
			{Table: "t", Op: txn.MutInsert, Rid: i, Row: []sqltypes.Value{sqltypes.NewInt(int64(i))}},
		}))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] <= lsns[i-1] {
			t.Fatalf("LSNs not increasing: %v", lsns)
		}
	}
	if err := l.WaitDurable(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var epochs []uint64
	err = ReadRecords(dir, func(p []byte) error {
		rec, err := DecodeRecord(p)
		if err != nil {
			return err
		}
		epochs = append(epochs, rec.(*CommitRecord).Epoch)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 10 || epochs[0] != 1 || epochs[9] != 10 {
		t.Fatalf("replayed epochs %v", epochs)
	}
}

func TestTornTailStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(EncodeDropTable(uint64(i+1), "t")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: append a frame header that promises more
	// bytes than follow, plus a few garbage bytes.
	f, err := os.OpenFile(LogPath(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var n int
	err = ReadRecords(dir, func(p []byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", n)
	}
}

func TestCorruptPayloadStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(EncodeDropTable(1, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(EncodeDropTable(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the last payload byte.
	buf, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01
	if err := os.WriteFile(LogPath(dir), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ReadRecords(dir, func(p []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", n)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append(EncodeDropTable(uint64(i+1), "t"))
			if err != nil {
				t.Error(err)
				return
			}
			if err := l.WaitDurable(lsn); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ReadRecords(dir, func(p []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers {
		t.Fatalf("replayed %d records, want %d", n, writers)
	}
}

func TestLogReset(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(EncodeDropTable(1, "t")); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := l.Size()
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	// LSNs are monotonic across resets; only the file restarts.
	if l.Size() != sizeBefore {
		t.Fatalf("reset rewound the LSN: %d -> %d", sizeBefore, l.Size())
	}
	lsn, err := l.Append(EncodeDropTable(2, "u"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= sizeBefore {
		t.Fatalf("post-reset LSN %d not past pre-reset high water %d", lsn, sizeBefore)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var names []string
	err = ReadRecords(dir, func(p []byte) error {
		rec, err := DecodeRecord(p)
		if err != nil {
			return err
		}
		names = append(names, rec.(*DropTableRecord).Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "u" {
		t.Fatalf("after reset replay saw %v, want [u]", names)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCheckpoint(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	cp := &Checkpoint{
		Epoch: 99,
		Tables: []TableImage{
			{
				Name: "t",
				Cols: []ColumnDef{
					{Name: "a", Type: sqltypes.Type{ID: sqltypes.TInt}},
					{Name: "b", Type: sqltypes.Type{ID: sqltypes.TVarChar, Prec: 30}},
				},
				Indexes: []string{"a", "b"},
				Slots: [][]sqltypes.Value{
					{sqltypes.NewInt(1), sqltypes.NewString("one")},
					nil, // dead slot must survive the round trip (rid stability)
					{sqltypes.NewInt(3), sqltypes.Null},
				},
			},
			{Name: "empty", Cols: []ColumnDef{{Name: "x", Type: sqltypes.Type{ID: sqltypes.TFloat}}}},
		},
	}
	if err := WriteCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if !sameCheckpoint(got, cp) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, cp)
	}
	// Overwrite is atomic: a second checkpoint replaces the first.
	cp2 := &Checkpoint{Epoch: 100}
	if err := WriteCheckpoint(dir, cp2); err != nil {
		t.Fatal(err)
	}
	got, _, err = ReadCheckpoint(dir)
	if err != nil || got.Epoch != 100 {
		t.Fatalf("second checkpoint: %v %v", got, err)
	}
}

func TestSyncModeParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
	}{{"always", SyncAlways}, {"group", SyncGroup}, {"off", SyncOff}} {
		m, err := ParseSyncMode(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", tc.in, m, err)
		}
		if m.String() != tc.in {
			t.Fatalf("String() = %q, want %q", m.String(), tc.in)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
