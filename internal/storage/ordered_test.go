package storage

import (
	"testing"

	"aggify/internal/sqltypes"
)

func intv(i int64) sqltypes.Value { return sqltypes.NewInt(i) }

// drainRange drains a RangeCursor fully, returning the id column values in
// emission order.
func drainRange(c *RangeCursor, stats *Stats) []int64 {
	var out []int64
	for {
		if c.Next(stats, 4, func(row []sqltypes.Value) { out = append(out, row[0].Int()) }) == 0 {
			return out
		}
	}
}

func TestOrderedIndexRangeSeek(t *testing.T) {
	tab := NewTable("t", testSchema())
	// Interleaved keys so key order differs from insertion order.
	for i := int64(0); i < 100; i++ {
		if err := tab.Insert(nil, row(i%10, "n", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	var stats Stats
	cur, ok := tab.SeekRange(nil, &stats, "id", intv(3), intv(5), false, true)
	if !ok {
		t.Fatal("SeekRange found no ordered index")
	}
	got := drainRange(cur, &stats)
	// Expect ids in {3, 4}, and in insertion (rid) order — identical to a
	// filtered scan.
	var want []int64
	tab.Scan(nil, nil, func(_ int, r []sqltypes.Value) bool {
		if id := r[0].Int(); id >= 3 && id < 5 {
			want = append(want, id)
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range seek returned %d rows, filtered scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: range seek id=%d, scan id=%d (order must match)", i, got[i], want[i])
		}
	}
	if stats.IndexSeeks.Load() != 1 {
		t.Fatalf("IndexSeeks = %d, want 1", stats.IndexSeeks.Load())
	}
	// Reset re-reads the same rows.
	cur.Reset()
	if again := drainRange(cur, nil); len(again) != len(got) {
		t.Fatalf("after Reset: %d rows, want %d", len(again), len(got))
	}
	// Unbounded-low and unbounded-high seeks.
	cur, _ = tab.SeekRange(nil, nil, "id", sqltypes.Null, intv(1), false, false)
	if n := len(drainRange(cur, nil)); n != 20 {
		t.Fatalf("id <= 1: %d rows, want 20", n)
	}
	cur, _ = tab.SeekRange(nil, nil, "id", intv(8), sqltypes.Null, true, false)
	if n := len(drainRange(cur, nil)); n != 10 {
		t.Fatalf("id > 8: %d rows, want 10", n)
	}
}

func TestOrderedIndexEqualityLookup(t *testing.T) {
	tab := NewTable("t", testSchema())
	for i := int64(0); i < 50; i++ {
		_ = tab.Insert(nil, row(i%7, "n", 0))
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	// Table.Seek is a degenerate range over the same index.
	n := 0
	if !tab.Seek(nil, nil, "id", intv(3), func(_ int, r []sqltypes.Value) bool {
		if r[0].Int() != 3 {
			t.Fatalf("seek(3) returned id=%d", r[0].Int())
		}
		n++
		return true
	}) {
		t.Fatal("Seek found no index")
	}
	if n != 7 {
		t.Fatalf("seek(3) matched %d rows, want 7", n)
	}
}

func TestOrderedIndexPageSplitAndRemove(t *testing.T) {
	tab := NewTable("t", testSchema())
	const n = 3000 // forces several page splits
	for i := int64(0); i < n; i++ {
		_ = tab.Insert(nil, row((i*7919)%n, "n", 0))
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	ix := tab.Index("id")
	if ix.Len() != n {
		t.Fatalf("index len = %d, want %d", ix.Len(), n)
	}
	cur, _ := tab.SeekRange(nil, nil, "id", intv(100), intv(199), false, false)
	if got := len(drainRange(cur, nil)); got != 100 {
		t.Fatalf("range [100,199]: %d rows, want 100", got)
	}
	// Delete a swath and verify both the entries and the seek shrink.
	deleted := 0
	var rids []int
	tab.Scan(nil, nil, func(rid int, r []sqltypes.Value) bool {
		if id := r[0].Int(); id >= 100 && id < 150 {
			rids = append(rids, rid)
		}
		return true
	})
	for _, rid := range rids {
		if err := tab.Delete(nil, rid); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	if ix.Len() != n-deleted {
		t.Fatalf("after delete: index len = %d, want %d", ix.Len(), n-deleted)
	}
	cur, _ = tab.SeekRange(nil, nil, "id", intv(100), intv(199), false, false)
	if got := len(drainRange(cur, nil)); got != 50 {
		t.Fatalf("range [100,199] after delete: %d rows, want 50", got)
	}
}

// Regression: a range seek under a pinned cursor snapshot must not see
// rows committed after the snapshot was taken — the index holds their
// entries, but visibility filtering at the pinned epoch must drop them.
func TestOrderedRangeSeekPinnedSnapshot(t *testing.T) {
	tab, mgr := managedTable(t)
	for i := int64(0); i < 10; i++ {
		if err := tab.Insert(nil, row(i, "old", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	snap := mgr.Acquire()
	defer snap.Release()

	// Commit in-range inserts, an in-range update, and a delete after the
	// snapshot pinned its epoch.
	if err := tab.Insert(nil, row(5, "new", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(nil, 0, row(5, "moved", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(nil, 7); err != nil {
		t.Fatal(err)
	}

	cur, ok := tab.SeekRange(snap, nil, "id", intv(3), intv(9), false, false)
	if !ok {
		t.Fatal("SeekRange found no ordered index")
	}
	var got []int64
	for cur.Next(nil, 100, func(r []sqltypes.Value) {
		if r[1].Str() != "old" {
			t.Errorf("pinned snapshot saw post-snapshot row %v", r)
		}
		got = append(got, r[0].Int())
	}) != 0 {
	}
	// Rows 3..9 as of the snapshot: ids 3,4,5,6,7,8,9 — including the
	// since-deleted 7 and the since-moved 0's old id is 0 (out of range).
	want := []int64{3, 4, 5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("pinned range seek saw ids %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pinned range seek saw ids %v, want %v", got, want)
		}
	}
	// A latest-state seek sees the new world: 3,4,5,5(new),5(moved),6,8,9.
	cur, _ = tab.SeekRange(nil, nil, "id", intv(3), intv(9), false, false)
	if n := len(drainRange(cur, nil)); n != 8 {
		t.Fatalf("latest range seek saw %d rows, want 8", n)
	}
}

// Regression: rollback must undo index entries — an aborted
// insert/update/delete leaves no trace in the index or its range seeks.
func TestOrderedIndexRollback(t *testing.T) {
	tab, mgr := managedTable(t)
	for i := int64(0); i < 10; i++ {
		_ = tab.Insert(nil, row(i, "base", 0))
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	ix := tab.Index("id")
	before := ix.Len()

	tx := mgr.Begin()
	if err := tab.Insert(tx, row(100, "mine", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(tx, 2, row(200, "mine", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	// Uncommitted entries are visible to the writer itself...
	cur, _ := tab.SeekRange(tx.Snapshot(), nil, "id", intv(100), intv(200), false, false)
	if n := len(drainRange(cur, nil)); n != 2 {
		t.Fatalf("own-writes range seek saw %d rows, want 2", n)
	}
	tx.Rollback()

	if after := ix.Len(); after != before {
		t.Fatalf("rollback left ordered index at %d entries, want %d", after, before)
	}
	cur, _ = tab.SeekRange(nil, nil, "id", intv(100), intv(200), false, false)
	if n := len(drainRange(cur, nil)); n != 0 {
		t.Fatalf("rollback left %d rows visible in [100,200]", n)
	}
	cur, _ = tab.SeekRange(nil, nil, "id", intv(0), intv(9), false, false)
	if n := len(drainRange(cur, nil)); n != 10 {
		t.Fatalf("after rollback: %d base rows, want 10", n)
	}
}

func TestHistogramEquiDepth(t *testing.T) {
	tab := NewTable("t", testSchema())
	for i := int64(0); i < 970; i++ {
		_ = tab.Insert(nil, row(i%97, "n", 0))
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	st := tab.Statistics()
	h, ok := st.Histograms["id"]
	if !ok {
		t.Fatal("no histogram for indexed column id")
	}
	if h.Sampled != 970 || h.Rows != 970 {
		t.Fatalf("histogram sampled=%d rows=%d, want 970/970", h.Sampled, h.Rows)
	}
	if len(h.Buckets) == 0 || len(h.Buckets) > HistogramBuckets {
		t.Fatalf("bucket count = %d", len(h.Buckets))
	}
	total, ndv := 0, 0
	for _, b := range h.Buckets {
		total += b.Rows
		ndv += b.NDV
	}
	if total != 970 {
		t.Fatalf("bucket rows sum to %d, want 970", total)
	}
	if ndv != 97 {
		t.Fatalf("bucket NDVs sum to %d, want 97", ndv)
	}
	// Selectivity of [10, 15) should be near 5/97.
	sel := h.SelectivityRange(intv(10), intv(15), false, true)
	if sel <= 0 || sel > 0.2 {
		t.Fatalf("selectivity [10,15) = %f, want ~0.05", sel)
	}
	// Full range ~ 1.
	if sel := h.SelectivityRange(sqltypes.Null, sqltypes.Null, false, false); sel < 0.99 {
		t.Fatalf("unbounded selectivity = %f, want 1", sel)
	}
	// The histogram is rebuilt once a tenth of its 970 rows could have
	// changed: 96 inserts keep it, the 97th rebuilds it.
	for i := 0; i < 96; i++ {
		_ = tab.Insert(nil, row(1000, "n", 0))
	}
	if got := tab.Statistics().Histograms["id"].Sampled; got != 970 {
		t.Fatalf("histogram sampled = %d after 96 inserts, want 970", got)
	}
	_ = tab.Insert(nil, row(1000, "n", 0))
	if got := tab.Statistics().Histograms["id"].Sampled; got != 1067 {
		t.Fatalf("histogram sampled = %d after 97 inserts, want 1067", got)
	}
}
