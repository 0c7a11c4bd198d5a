package storage

import (
	"errors"
	"sync"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// managedTable returns a table bound to a fresh transaction manager.
func managedTable(t *testing.T) (*Table, *txn.Manager) {
	t.Helper()
	mgr := txn.NewManager()
	tab := NewTable("t", testSchema())
	tab.Bind(mgr)
	return tab, mgr
}

// chainLen counts the versions in a slot's chain (0 for a dead slot).
func (t *Table) chainLen(rid int) int {
	t.mu.RLock()
	s := t.slots[rid]
	t.mu.RUnlock()
	n := 0
	for v := s.head.Load(); v != nil; v = v.Prev() {
		n++
	}
	return n
}

func TestSnapshotIsolationReadersSeeFrozenEpoch(t *testing.T) {
	tab, mgr := managedTable(t)
	if err := tab.Insert(nil, row(1, "old", 10)); err != nil {
		t.Fatal(err)
	}

	snap := mgr.Acquire()
	defer snap.Release()

	if err := tab.Update(nil, 0, row(1, "new", 20)); err != nil {
		t.Fatal(err)
	}

	// The pinned snapshot still sees the old version.
	r := tab.Row(snap, 0)
	if r == nil || r[1].Str() != "old" {
		t.Fatalf("snapshot read = %v, want old", r)
	}
	// A latest-committed read sees the new one.
	r = tab.Row(nil, 0)
	if r == nil || r[1].Str() != "new" {
		t.Fatalf("latest read = %v, want new", r)
	}
	// Rows inserted after the snapshot are invisible to it.
	if err := tab.Insert(nil, row(2, "later", 0)); err != nil {
		t.Fatal(err)
	}
	n := 0
	tab.Scan(snap, nil, func(int, []sqltypes.Value) bool { n++; return true })
	if n != 1 {
		t.Fatalf("snapshot scan saw %d rows, want 1", n)
	}
}

func TestSnapshotSeesDeletedRow(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.Insert(nil, row(1, "a", 0))
	snap := mgr.Acquire()
	defer snap.Release()
	if err := tab.Delete(nil, 0); err != nil {
		t.Fatal(err)
	}
	if r := tab.Row(snap, 0); r == nil {
		t.Fatal("snapshot should still see the deleted row")
	}
	if r := tab.Row(nil, 0); r != nil {
		t.Fatalf("latest read should miss the deleted row, got %v", r)
	}
}

func TestTxnReadsOwnUncommittedWrites(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.Insert(nil, row(1, "base", 0))

	tx := mgr.Begin()
	if err := tab.Update(tx, 0, row(1, "mine", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(tx, row(2, "alsomine", 2)); err != nil {
		t.Fatal(err)
	}
	// The transaction's snapshot sees both uncommitted writes.
	n := 0
	tab.Scan(tx.Snapshot(), nil, func(_ int, r []sqltypes.Value) bool { n++; return true })
	if n != 2 {
		t.Fatalf("own-writes scan saw %d rows, want 2", n)
	}
	// Other readers see neither.
	other := mgr.Acquire()
	defer other.Release()
	n = 0
	tab.Scan(other, nil, func(_ int, r []sqltypes.Value) bool {
		if r[1].Str() != "base" {
			t.Errorf("foreign reader saw uncommitted row %v", r)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("foreign scan saw %d rows, want 1", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 2 {
		t.Fatalf("RowCount after commit = %d", tab.RowCount())
	}
}

func TestWriteConflictFirstCommitterWins(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.Insert(nil, row(1, "base", 0))

	t1 := mgr.Begin()
	t2 := mgr.Begin()
	if err := tab.Update(t1, 0, row(1, "t1", 1)); err != nil {
		t.Fatal(err)
	}
	// t2 hits t1's uncommitted version: immediate conflict.
	if err := tab.Update(t2, 0, row(1, "t2", 2)); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("want ErrWriteConflict, got %v", err)
	}
	t2.Rollback()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	// A transaction whose snapshot predates a committed update conflicts too.
	t3 := mgr.Begin()
	if err := tab.Update(nil, 0, row(1, "autoc", 3)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(t3, 0, row(1, "t3", 4)); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("stale-snapshot update: want ErrWriteConflict, got %v", err)
	}
	t3.Rollback()
}

func TestRollbackUndoesWritesAndIndexes(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.CreateIndex("id")
	_ = tab.Insert(nil, row(1, "keep", 0))

	tx := mgr.Begin()
	if err := tab.Insert(tx, row(7, "gone", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(tx, 0, row(9, "changed", 0)); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	if tab.RowCount() != 1 {
		t.Fatalf("RowCount after rollback = %d", tab.RowCount())
	}
	count := func(key int64) int {
		n := 0
		tab.Seek(nil, nil, "id", sqltypes.NewInt(key), func(int, []sqltypes.Value) bool { n++; return true })
		return n
	}
	if count(7) != 0 || count(9) != 0 || count(1) != 1 {
		t.Fatalf("index after rollback: k7=%d k9=%d k1=%d", count(7), count(9), count(1))
	}
	if r := tab.Row(nil, 0); r == nil || r[1].Str() != "keep" {
		t.Fatalf("row after rollback = %v", r)
	}
}

func TestIndexSeekIsSnapshotRelative(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.CreateIndex("id")
	_ = tab.Insert(nil, row(1, "v1", 0))

	snap := mgr.Acquire()
	defer snap.Release()
	if err := tab.Update(nil, 0, row(2, "v2", 0)); err != nil {
		t.Fatal(err)
	}

	// At the old snapshot, key 1 matches and key 2 does not.
	var got []string
	tab.Seek(snap, nil, "id", sqltypes.NewInt(1), func(_ int, r []sqltypes.Value) bool {
		got = append(got, r[1].Str())
		return true
	})
	if len(got) != 1 || got[0] != "v1" {
		t.Fatalf("old-snapshot seek(1) = %v", got)
	}
	n := 0
	tab.Seek(snap, nil, "id", sqltypes.NewInt(2), func(int, []sqltypes.Value) bool { n++; return true })
	if n != 0 {
		t.Fatalf("old-snapshot seek(2) hit %d rows, want 0", n)
	}
	// At latest, the reverse.
	n = 0
	tab.Seek(nil, nil, "id", sqltypes.NewInt(1), func(int, []sqltypes.Value) bool { n++; return true })
	if n != 0 {
		t.Fatalf("latest seek(1) hit %d rows, want 0", n)
	}
	n = 0
	tab.Seek(nil, nil, "id", sqltypes.NewInt(2), func(int, []sqltypes.Value) bool { n++; return true })
	if n != 1 {
		t.Fatalf("latest seek(2) hit %d rows, want 1", n)
	}
}

func TestVacuumReclaimsOldVersions(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.CreateIndex("id")
	_ = tab.Insert(nil, row(1, "a", 0))
	for i := int64(2); i <= 10; i++ {
		if err := tab.Update(nil, 0, row(i, "a", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tab.chainLen(0); got != 10 {
		t.Fatalf("chain length before vacuum = %d, want 10", got)
	}
	tab.Vacuum(mgr.OldestVisible())
	if got := tab.chainLen(0); got != 1 {
		t.Fatalf("chain length after vacuum = %d, want 1", got)
	}
	// Stale index entries for superseded keys are gone.
	for k := int64(1); k < 10; k++ {
		n := 0
		tab.Seek(nil, nil, "id", sqltypes.NewInt(k), func(int, []sqltypes.Value) bool { n++; return true })
		if n != 0 {
			t.Fatalf("stale index entry for key %d survived vacuum", k)
		}
	}
	// A live snapshot holds the horizon back.
	snap := mgr.Acquire()
	for i := int64(11); i <= 13; i++ {
		_ = tab.Update(nil, 0, row(i, "a", 0))
	}
	tab.Vacuum(mgr.OldestVisible())
	if got := tab.chainLen(0); got < 2 {
		t.Fatalf("vacuum cut versions a live snapshot needs: chain=%d", got)
	}
	if r := tab.Row(snap, 0); r == nil || r[0].Int() != 10 {
		t.Fatalf("snapshot read after vacuum = %v, want id 10", r)
	}
	snap.Release()
	tab.Vacuum(mgr.OldestVisible())
	if got := tab.chainLen(0); got != 1 {
		t.Fatalf("chain after release+vacuum = %d, want 1", got)
	}
}

func TestVacuumReclaimsDeletedSlots(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.Insert(nil, row(1, "a", 0))
	_ = tab.Insert(nil, row(2, "b", 0))
	if err := tab.Delete(nil, 0); err != nil {
		t.Fatal(err)
	}
	tab.Vacuum(mgr.OldestVisible())
	if got := tab.chainLen(0); got != 0 {
		t.Fatalf("deleted slot chain = %d, want 0 (tombstone reclaimed)", got)
	}
	// Rid stability: slot 1 still holds row b.
	if r := tab.Row(nil, 1); r == nil || r[1].Str() != "b" {
		t.Fatalf("slot 1 after vacuum = %v", r)
	}
	if tab.SlotCount() != 2 {
		t.Fatalf("SlotCount = %d, want 2 (slots are never compacted)", tab.SlotCount())
	}
}

func TestConcurrentReadersNeverBlockWriters(t *testing.T) {
	tab, mgr := managedTable(t)
	for i := int64(0); i < 64; i++ {
		_ = tab.Insert(nil, row(i, "x", 0))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := mgr.Acquire()
				n := 0
				tab.Scan(snap, nil, func(int, []sqltypes.Value) bool { n++; return true })
				if n != 64 {
					t.Errorf("reader saw %d rows, want 64 (update is not an insert+delete)", n)
				}
				snap.Release()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		rid := i % 64
		if err := tab.Update(nil, rid, row(int64(rid), "y", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	mgr.Vacuum(func(oldest uint64) { tab.Vacuum(oldest) })
}

func TestTruncateMVCC(t *testing.T) {
	tab, mgr := managedTable(t)
	_ = tab.Insert(nil, row(1, "a", 0))
	_ = tab.Insert(nil, row(2, "b", 0))

	snap := mgr.Acquire()
	defer snap.Release()
	if err := tab.Truncate(nil); err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 0 {
		t.Fatalf("RowCount after truncate = %d", tab.RowCount())
	}
	// The pre-truncate snapshot still sees both rows.
	n := 0
	tab.Scan(snap, nil, func(int, []sqltypes.Value) bool { n++; return true })
	if n != 2 {
		t.Fatalf("snapshot scan after truncate saw %d rows, want 2", n)
	}

	// Rollback restores.
	_ = tab.Insert(nil, row(3, "c", 0))
	tx := mgr.Begin()
	if err := tab.Truncate(tx); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if tab.RowCount() != 1 {
		t.Fatalf("RowCount after rolled-back truncate = %d, want 1", tab.RowCount())
	}
}

// Satellite regression: table statistics (row count, per-column distinct
// estimates) must be refreshed by every mutation path rather than serving
// stale cached values.
func TestTableStatisticsRefreshOnMutation(t *testing.T) {
	tab, _ := managedTable(t)
	idOrd := tab.Schema.Ordinal("id")
	if idOrd < 0 {
		t.Fatal("managed table has no id column")
	}
	// Distinct estimates are kept for indexed columns only.
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if d := tab.Statistics().DistinctOf(tab.Schema, "name"); d != -1 {
		t.Fatalf("distinct(name) = %d without an index, want -1", d)
	}

	for i := int64(0); i < 8; i++ {
		_ = tab.Insert(nil, row(i%4, "n", 0))
	}
	st := tab.Statistics()
	if st.Rows != 8 || st.Distinct[idOrd] != 4 {
		t.Fatalf("after inserts: rows=%d distinct(id)=%d, want 8/4", st.Rows, st.Distinct[idOrd])
	}

	// Update collapses ids to a single value.
	for rid := 0; rid < 8; rid++ {
		if err := tab.Update(nil, rid, row(42, "n", 0)); err != nil {
			t.Fatal(err)
		}
	}
	st = tab.Statistics()
	if st.Rows != 8 || st.Distinct[idOrd] != 1 {
		t.Fatalf("after updates: rows=%d distinct(id)=%d, want 8/1", st.Rows, st.Distinct[idOrd])
	}

	if err := tab.Delete(nil, 0); err != nil {
		t.Fatal(err)
	}
	if st = tab.Statistics(); st.Rows != 7 {
		t.Fatalf("after delete: rows=%d, want 7", st.Rows)
	}

	if err := tab.Truncate(nil); err != nil {
		t.Fatal(err)
	}
	if st = tab.Statistics(); st.Rows != 0 || st.Distinct[idOrd] != 0 {
		t.Fatalf("after truncate: rows=%d distinct=%d, want 0/0", st.Rows, st.Distinct[idOrd])
	}

	// Rolled-back writes must not leak into the statistics.
	tx := tab.mgr.Begin()
	_ = tab.Insert(tx, row(1, "x", 0))
	tx.Rollback()
	if st = tab.Statistics(); st.Rows != 0 {
		t.Fatalf("after rollback: rows=%d, want 0", st.Rows)
	}
}

func TestStatisticsCachedUntilInvalidated(t *testing.T) {
	tab, _ := managedTable(t)
	_ = tab.Insert(nil, row(1, "a", 0))
	s1 := tab.Statistics()
	s2 := tab.Statistics()
	// The cached snapshot is returned by value but shares its Distinct
	// slice; a recompute allocates a fresh one.
	if &s1.Distinct[0] != &s2.Distinct[0] {
		t.Fatal("statistics should be cached between mutations")
	}
	_ = tab.Insert(nil, row(2, "b", 0))
	s3 := tab.Statistics()
	if &s3.Distinct[0] == &s1.Distinct[0] || s3.Rows != 2 {
		t.Fatalf("statistics not refreshed after mutation: %+v", s3)
	}
}

// TestStatisticsReuseWithinDrift: a snapshot built from N rows is served,
// with an exact row count, until N/10 mutations commit; the next read
// rebuilds it once, however many readers are waiting for it.
func TestStatisticsReuseWithinDrift(t *testing.T) {
	tab, _ := managedTable(t)
	rows := make([][]sqltypes.Value, 1000)
	for i := range rows {
		rows[i] = row(int64(i), "n", 0)
	}
	if err := tab.InsertMany(nil, rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	s1 := tab.Statistics()
	if tab.StatsBuilds() != 1 || s1.Rows != 1000 {
		t.Fatalf("first read: builds=%d rows=%d, want 1/1000", tab.StatsBuilds(), s1.Rows)
	}
	// 99 mutations are within a tenth of 1 000 rows: the snapshot stays,
	// while the row count follows every one of them.
	for i := 0; i < 99; i++ {
		if err := tab.Insert(nil, row(int64(1000+i), "n", 0)); err != nil {
			t.Fatal(err)
		}
		s := tab.Statistics()
		if &s.Distinct[0] != &s1.Distinct[0] || s.Rows != 1001+i {
			t.Fatalf("after %d inserts: rebuilt=%v rows=%d, want the cached snapshot and %d rows",
				i+1, &s.Distinct[0] != &s1.Distinct[0], s.Rows, 1001+i)
		}
	}
	if !tab.Drifted(0) || tab.Drifted(tab.StatsVersion()-99) {
		t.Fatal("Drifted disagrees with the rule at 99 of a 100-mutation drift")
	}
	// The 100th mutation is a tenth.
	if err := tab.Update(nil, 0, row(-1, "n", 0)); err != nil {
		t.Fatal(err)
	}
	s2 := tab.Statistics()
	if tab.StatsBuilds() != 2 || s2.Distinct[0] != 1099 || s2.Histograms["id"].Sampled != 1099 {
		t.Fatalf("after 100 mutations: builds=%d distinct=%d sampled=%d, want 2/1099/1099",
			tab.StatsBuilds(), s2.Distinct[0], s2.Histograms["id"].Sampled)
	}

	// One drift (a tenth of 1 099 rows is 109), then 8 readers at once:
	// one rebuilds, the others take its snapshot.
	for i := 0; i < 109; i++ {
		if err := tab.Update(nil, i, row(int64(5000+i), "n", 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab.Statistics()
		}()
	}
	wg.Wait()
	if got := tab.StatsBuilds(); got != 3 {
		t.Fatalf("8 concurrent reads after one drift: builds=%d, want 3", got)
	}

	// A truncate changes every row, so it is a drift on its own.
	if err := tab.Truncate(nil); err != nil {
		t.Fatal(err)
	}
	if st := tab.Statistics(); tab.StatsBuilds() != 4 || st.Rows != 0 || st.Distinct[0] != 0 {
		t.Fatalf("after truncate: builds=%d rows=%d distinct=%d, want 4/0/0", tab.StatsBuilds(), st.Rows, st.Distinct[0])
	}
}

// TestCreateIndexDropsCachedStatistics: an index added after the statistics
// were cached must get its histogram on the next read, not once the table
// drifts.
func TestCreateIndexDropsCachedStatistics(t *testing.T) {
	tab, _ := managedTable(t)
	rows := make([][]sqltypes.Value, 2000)
	for i := range rows {
		rows[i] = row(int64(i+1), "n", float64(i%7))
	}
	if err := tab.InsertMany(nil, rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.CreateIndex("cost"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Statistics().Histograms["id"]; ok {
		t.Fatal("histogram for a column with no index")
	}
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	h, ok := tab.Statistics().Histograms["id"]
	if !ok || h.Sampled != 2000 {
		t.Fatalf("after CREATE INDEX: histogram present=%v sampled=%d, want 2000", ok, h.Sampled)
	}
	// Creating an index that exists changes nothing and keeps the snapshot.
	builds := tab.StatsBuilds()
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	tab.Statistics()
	if tab.StatsBuilds() != builds {
		t.Fatal("re-creating an existing index dropped the statistics")
	}
}
