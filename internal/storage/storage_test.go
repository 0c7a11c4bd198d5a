package storage

import (
	"testing"
	"testing/quick"

	"aggify/internal/sqltypes"
)

func testSchema() *Schema {
	return NewSchema(
		Col("id", sqltypes.Int),
		Col("name", sqltypes.VarChar(32)),
		Col("cost", sqltypes.Float),
	)
}

func TestSchemaOrdinal(t *testing.T) {
	s := testSchema()
	if s.Ordinal("NAME") != 1 {
		t.Fatalf("Ordinal is case sensitive: %d", s.Ordinal("NAME"))
	}
	if s.Ordinal("missing") != -1 {
		t.Fatal("missing column should be -1")
	}
	if s.Len() != 3 {
		t.Fatal("Len broken")
	}
	if got := s.String(); got != "(id INT, name VARCHAR(32), cost FLOAT)" {
		t.Fatalf("String() = %q", got)
	}
}

func row(id int64, name string, cost float64) []sqltypes.Value {
	return []sqltypes.Value{sqltypes.NewInt(id), sqltypes.NewString(name), sqltypes.NewFloat(cost)}
}

func TestTableInsertScan(t *testing.T) {
	tab := NewTable("t", testSchema())
	var stats Stats
	for i := int64(0); i < 10; i++ {
		if err := tab.Insert(nil, row(i, "n", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tab.RowCount() != 10 {
		t.Fatalf("RowCount = %d", tab.RowCount())
	}
	var seen int64
	tab.Scan(nil, &stats, func(rid int, r []sqltypes.Value) bool {
		if r[0].Int() != int64(rid) {
			t.Errorf("row %d has id %d", rid, r[0].Int())
		}
		seen++
		return true
	})
	if seen != 10 {
		t.Fatalf("scanned %d rows", seen)
	}
	if stats.LogicalReads.Load() != 10 {
		t.Fatalf("logical reads = %d, want 10", stats.LogicalReads.Load())
	}
}

func TestScanEarlyStop(t *testing.T) {
	tab := NewTable("t", testSchema())
	for i := int64(0); i < 10; i++ {
		_ = tab.Insert(nil, row(i, "n", 0))
	}
	var stats Stats
	n := 0
	tab.Scan(nil, &stats, func(int, []sqltypes.Value) bool { n++; return n < 3 })
	if n != 3 || stats.LogicalReads.Load() != 3 {
		t.Fatalf("early stop: n=%d reads=%d", n, stats.LogicalReads.Load())
	}
}

func TestInsertArityAndCoercion(t *testing.T) {
	tab := NewTable("t", testSchema())
	if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
	// An int inserted into a FLOAT column should coerce.
	if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("a"), sqltypes.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	r := tab.Row(nil, 0)
	if r[2].Kind() != sqltypes.KindFloat || r[2].Float() != 5 {
		t.Fatalf("coercion to float failed: %v", r[2])
	}
}

func TestIndexSeek(t *testing.T) {
	tab := NewTable("t", testSchema())
	for i := int64(0); i < 100; i++ {
		_ = tab.Insert(nil, row(i%10, "n", float64(i)))
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	var stats Stats
	var hits int
	ok := tab.Seek(nil, &stats, "id", sqltypes.NewInt(3), nil, func(rid int, r []sqltypes.Value) bool {
		if r[0].Int() != 3 {
			t.Errorf("seek returned id %d", r[0].Int())
		}
		hits++
		return true
	})
	if !ok {
		t.Fatal("Seek reported no index")
	}
	if hits != 10 {
		t.Fatalf("seek hits = %d, want 10", hits)
	}
	if stats.IndexSeeks.Load() != 1 || stats.LogicalReads.Load() != 10 {
		t.Fatalf("stats: seeks=%d reads=%d", stats.IndexSeeks.Load(), stats.LogicalReads.Load())
	}
	if tab.Seek(nil, nil, "name", sqltypes.NewString("n"), nil, func(int, []sqltypes.Value) bool { return true }) {
		t.Fatal("Seek on unindexed column should return false")
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	tab := NewTable("t", testSchema())
	_ = tab.CreateIndex("id")
	_ = tab.Insert(nil, row(1, "a", 0))
	_ = tab.Insert(nil, row(2, "b", 0))
	if err := tab.Update(nil, 0, row(5, "a2", 1)); err != nil {
		t.Fatal(err)
	}
	count := func(key int64) int {
		n := 0
		tab.Seek(nil, nil, "id", sqltypes.NewInt(key), nil, func(int, []sqltypes.Value) bool { n++; return true })
		return n
	}
	if count(1) != 0 || count(5) != 1 {
		t.Fatalf("index not maintained on update: old=%d new=%d", count(1), count(5))
	}
	if err := tab.Delete(nil, 1); err != nil {
		t.Fatal(err)
	}
	if count(2) != 0 {
		t.Fatal("index not maintained on delete")
	}
	if err := tab.Delete(nil, 1); err == nil {
		t.Fatal("double delete should error")
	}
	// Deleted rows are skipped by scans.
	n := 0
	tab.Scan(nil, nil, func(int, []sqltypes.Value) bool { n++; return true })
	if n != 1 {
		t.Fatalf("scan after delete saw %d rows", n)
	}
}

func TestCreateIndexBackfillsAndIsIdempotent(t *testing.T) {
	tab := NewTable("t", testSchema())
	_ = tab.Insert(nil, row(7, "x", 0))
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal("re-creating index should be a no-op")
	}
	n := 0
	tab.Seek(nil, nil, "id", sqltypes.NewInt(7), nil, func(int, []sqltypes.Value) bool { n++; return true })
	if n != 1 {
		t.Fatal("index did not backfill existing rows")
	}
	if err := tab.CreateIndex("bogus"); err == nil {
		t.Fatal("index on missing column should error")
	}
}

func TestTruncate(t *testing.T) {
	tab := NewTable("t", testSchema())
	_ = tab.CreateIndex("id")
	_ = tab.Insert(nil, row(1, "a", 0))
	tab.Truncate(nil)
	if tab.RowCount() != 0 {
		t.Fatal("truncate left rows")
	}
	n := 0
	tab.Seek(nil, nil, "id", sqltypes.NewInt(1), nil, func(int, []sqltypes.Value) bool { n++; return true })
	if n != 0 {
		t.Fatal("truncate left index entries")
	}
}

func TestNullNotIndexed(t *testing.T) {
	tab := NewTable("t", testSchema())
	_ = tab.CreateIndex("id")
	_ = tab.Insert(nil, []sqltypes.Value{sqltypes.Null, sqltypes.NewString("x"), sqltypes.NewFloat(0)})
	n := 0
	tab.Seek(nil, nil, "id", sqltypes.Null, nil, func(int, []sqltypes.Value) bool { n++; return true })
	if n != 0 {
		t.Fatal("NULL keys must not match index seeks")
	}
}

func TestRowCodecRoundtrip(t *testing.T) {
	rows := [][]sqltypes.Value{
		{},
		{sqltypes.Null},
		{sqltypes.NewBool(true), sqltypes.NewBool(false)},
		{sqltypes.NewInt(-1 << 40), sqltypes.NewInt(0), sqltypes.NewInt(1 << 40)},
		{sqltypes.NewFloat(3.14159), sqltypes.NewFloat(-0.0)},
		{sqltypes.NewString(""), sqltypes.NewString("héllo 'quoted'")},
		{sqltypes.MustDate("1995-03-15")},
		{sqltypes.NewTuple([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("x"), sqltypes.Null})},
	}
	for _, r := range rows {
		enc := AppendRow(nil, r)
		dec, rest, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %v left %d bytes", r, len(rest))
		}
		if len(dec) != len(r) {
			t.Fatalf("arity mismatch: %v vs %v", dec, r)
		}
		for i := range r {
			if r[i].Kind() != dec[i].Kind() {
				t.Fatalf("kind mismatch at %d: %v vs %v", i, r[i], dec[i])
			}
			if !r[i].IsNull() && !sqltypes.GroupEqual(r[i], dec[i]) {
				t.Fatalf("value mismatch at %d: %v vs %v", i, r[i], dec[i])
			}
		}
	}
}

func TestRowCodecTruncation(t *testing.T) {
	enc := AppendRow(nil, []sqltypes.Value{sqltypes.NewString("hello")})
	for i := 1; i < len(enc); i++ {
		if _, _, err := DecodeRow(enc[:i]); err == nil {
			t.Fatalf("truncated decode at %d should error", i)
		}
	}
	if _, _, err := DecodeValue([]byte{250}); err == nil {
		t.Fatal("unknown tag should error")
	}
}

// Property: any row of random ints/strings roundtrips through the codec.
func TestRowCodecProperty(t *testing.T) {
	f := func(a int64, s string, b bool) bool {
		r := []sqltypes.Value{sqltypes.NewInt(a), sqltypes.NewString(s), sqltypes.NewBool(b), sqltypes.Null}
		dec, rest, err := DecodeRow(AppendRow(nil, r))
		if err != nil || len(rest) != 0 || len(dec) != 4 {
			return false
		}
		return dec[0].Int() == a && dec[1].Str() == s && dec[2].Bool() == b && dec[3].IsNull()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorktable(t *testing.T) {
	var stats Stats
	w := NewWorktable(&stats)
	for i := int64(0); i < 1000; i++ {
		if err := w.Append(row(i, "some-name-payload", float64(i)*1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if w.RowCount() != 1000 {
		t.Fatalf("RowCount = %d", w.RowCount())
	}
	if stats.WorktableWrites.Load() != 1000 {
		t.Fatalf("writes = %d", stats.WorktableWrites.Load())
	}
	if stats.WorktableBytes.Load() <= 0 {
		t.Fatal("no bytes accounted")
	}
	if w.PageCount() < 2 {
		t.Fatalf("expected multiple pages, got %d", w.PageCount())
	}
	for i := 0; i < 1000; i++ {
		r, err := w.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d decoded id %d", i, r[0].Int())
		}
	}
	if stats.WorktableReads.Load() != 1000 {
		t.Fatalf("reads = %d", stats.WorktableReads.Load())
	}
	for _, i := range []int{-1, 1000} {
		if r, err := w.Get(i); r != nil || err != nil {
			t.Fatalf("out-of-range Get(%d) = %v, %v; want nil, nil", i, r, err)
		}
	}
	w.Reset()
	if r, err := w.Get(0); w.RowCount() != 0 || r != nil || err != nil {
		t.Fatal("reset broken")
	}
}

// TestWorktableIOErrors closes a disk worktable's file underneath it: reading
// back a spilled row and spilling another page must both return errors, not
// panic.
func TestWorktableIOErrors(t *testing.T) {
	w := NewWorktable(nil)
	defer w.Close()
	if w.InMemory() {
		t.Skip("no temporary file could be created")
	}
	appendPage := func() error {
		for pages := w.PageCount(); w.PageCount() == pages; {
			if err := w.Append(row(int64(w.RowCount()), "some-name-payload", 1.5)); err != nil {
				return err
			}
		}
		return nil
	}
	for w.PageCount() < 2 { // page 0 spilled to the file
		if err := appendPage(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.file.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err := w.Get(0); err == nil {
		t.Fatalf("Get of a spilled row after the file closed = %v, want an error", r)
	}
	if err := appendPage(); err == nil {
		t.Fatal("spilling a page after the file closed succeeded, want an error")
	}
}

func TestWireSize(t *testing.T) {
	small := WireSize([]sqltypes.Value{sqltypes.NewInt(1)})
	big := WireSize([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("abcdefghij")})
	if small <= 0 || big <= small {
		t.Fatalf("WireSize: small=%d big=%d", small, big)
	}
}

func TestStatsSnapshotSub(t *testing.T) {
	var s Stats
	s.LogicalReads.Add(10)
	before := s.Snapshot()
	s.LogicalReads.Add(5)
	s.WorktableReads.Add(2)
	d := s.Snapshot().Sub(before)
	if d.LogicalReads != 5 || d.WorktableReads != 2 {
		t.Fatalf("delta = %+v", d)
	}
	if d.TotalReads() != 7 {
		t.Fatalf("TotalReads = %d", d.TotalReads())
	}
	s.Reset()
	if s.Snapshot() != (Snapshot{}) {
		t.Fatal("reset broken")
	}
}
