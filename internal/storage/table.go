package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// Table is a heap table of per-row version chains with optional ordered
// indexes, read under snapshot isolation.
//
// Every row occupies one slot; a slot's id (rid) is assigned at insert and
// is stable forever — deletes leave a tombstone version, vacuum empties
// the slot but never compacts the slot array, and checkpoints preserve
// dead slots — so rids can address rows in the write-ahead log across
// restarts.
//
// Concurrency: writers serialize on the table's write lock; readers walk
// version chains lock-free (slot heads and chain links are atomic), taking
// the read lock only for the instant it takes to copy the slot slice or an
// index bucket. A scan therefore never blocks a writer for the duration of
// its callbacks, and a writer never makes a reader observe a torn row: the
// reader's snapshot simply does not see versions committed after it.
//
// A table is either managed — bound to a txn.Manager via Bind, with every
// mutation versioned, conflict-checked, and (when a durability sink is
// attached) logged — or unmanaged (temp tables, table variables, test
// fixtures), where mutations apply directly and are visible to every
// snapshot. Unmanaged semantics deliberately match T-SQL table variables,
// which are unaffected by ROLLBACK.
//
// Reads charge the provided Stats with one logical read per row touched,
// which is how the engine reproduces the paper's logical-read measurements.
type Table struct {
	Name   string
	Schema *Schema

	mgr *txn.Manager // nil for unmanaged tables

	mu      sync.RWMutex
	slots   []*slot
	indexes map[string]*OrderedIndex // keyed by lower-cased column name

	liveRows atomic.Int64 // committed live rows (satellite fix: excludes deleted slots)

	// chunks holds one chunk range per ChunkSlots slots: the generation
	// writers bump and the typed column chunks filtered scans read
	// (chunk.go). chunkRejects counts the rows scans rejected from them.
	chunks       []*chunkRange
	chunkRejects atomic.Int64

	// Table statistics cache (see tablestats.go): statsVersion bumps on
	// every committed mutation; the cached snapshot is rebuilt once the
	// table has Drifted from statsCachedAt. statsRows is the row count the
	// snapshot was built from, statsBuilds the number of builds.
	statsVersion  atomic.Uint64
	statsRows     atomic.Int64
	statsBuilds   atomic.Int64
	statsMu       sync.Mutex
	statsCache    *TableStatistics
	statsCachedAt uint64
}

// slot holds the head of one row's version chain. A nil head is a dead
// slot (aborted insert or fully vacuumed row).
type slot struct {
	head atomic.Pointer[txn.Version]
}

// NewTable creates an empty, unmanaged table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema, indexes: map[string]*OrderedIndex{}}
}

// Bind attaches the table to a transaction manager, making every
// subsequent mutation versioned and conflict-checked. Must be called
// before the table is shared across sessions.
func (t *Table) Bind(mgr *txn.Manager) { t.mgr = mgr }

// Managed reports whether the table is bound to a transaction manager.
func (t *Table) Managed() bool { return t.mgr != nil }

// StatsVersion returns the table's mutation counter: it bumps on every
// committed mutation, by one per row changed, so cached artifacts derived
// from table contents (statistics, compiled plans) can detect drift
// cheaply (see Drifted).
func (t *Table) StatsVersion() uint64 { return t.statsVersion.Load() }

// RowCount returns the number of committed live rows, not the slot count:
// deleted rows keep their slots.
func (t *Table) RowCount() int { return int(t.liveRows.Load()) }

// SlotCount returns the total number of slots ever allocated, live or dead.
func (t *Table) SlotCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.slots)
}

// conflict records a write-conflict detection with the transaction manager
// and returns the canonical error.
func (t *Table) conflict() error {
	if t.mgr != nil {
		t.mgr.NoteConflict()
	}
	return txn.ErrWriteConflict
}

// ChainStats summarizes the table's version-chain shape for the
// aggify_stat_tables system view: Versions counts every version node
// reachable from a slot head, and Garbage the superseded (non-head) ones a
// vacuum pass could reclaim once the horizon allows.
type ChainStats struct {
	Versions int64
	Garbage  int64
}

// ChainStats walks every slot's version chain. O(versions); intended for
// introspection queries, not hot paths.
func (t *Table) ChainStats() ChainStats {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	var cs ChainStats
	for _, s := range slots {
		depth := int64(0)
		for v := s.head.Load(); v != nil; v = v.Prev() {
			depth++
		}
		cs.Versions += depth
		if depth > 1 {
			cs.Garbage += depth - 1
		}
	}
	return cs
}

func (t *Table) coerce(row []sqltypes.Value) ([]sqltypes.Value, error) {
	if len(row) != t.Schema.Len() {
		return nil, fmt.Errorf("storage: table %s expects %d values, got %d", t.Name, t.Schema.Len(), len(row))
	}
	coerced := make([]sqltypes.Value, len(row))
	for i, v := range row {
		cv, err := v.CoerceTo(t.Schema.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("storage: column %s of %s: %w", t.Schema.Columns[i].Name, t.Name, err)
		}
		coerced[i] = cv
	}
	return coerced, nil
}

// autocommit wraps a single mutation on a managed table in an implicit
// transaction when the caller did not supply one.
func (t *Table) autocommit(do func(tx *txn.Txn) error) error {
	tx := t.mgr.Begin()
	if err := do(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Insert appends a row. The row must match the schema arity; values are
// coerced to the declared column types. On a managed table a nil tx
// auto-commits the insert in an implicit transaction.
func (t *Table) Insert(tx *txn.Txn, row []sqltypes.Value) error {
	coerced, err := t.coerce(row)
	if err != nil {
		return err
	}
	if t.mgr != nil && tx == nil {
		return t.autocommit(func(tx *txn.Txn) error { return t.insertTx(tx, coerced) })
	}
	if tx == nil {
		// Unmanaged: apply directly, visible everywhere.
		t.mu.Lock()
		defer t.mu.Unlock()
		rid := len(t.slots)
		s := &slot{}
		s.head.Store(txn.NewCommittedVersion(coerced, nil, 0))
		t.touch(rid)
		t.slots = append(t.slots, s)
		for _, idx := range t.indexes {
			idx.add(coerced[idx.ord()], rid)
		}
		t.liveRows.Add(1)
		t.statsVersion.Add(1)
		return nil
	}
	return t.insertTx(tx, coerced)
}

func (t *Table) insertTx(tx *txn.Txn, coerced []sqltypes.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rid := len(t.slots)
	s := &slot{}
	v := txn.NewVersion(coerced, nil, tx.ID)
	s.head.Store(v)
	t.touch(rid)
	t.slots = append(t.slots, s)
	for _, idx := range t.indexes {
		idx.add(coerced[idx.ord()], rid)
	}
	tx.Track(v)
	tx.Log(txn.Mutation{Table: t.Name, Op: txn.MutInsert, Rid: rid, Row: coerced})
	tx.OnCommit(func(uint64) {
		t.liveRows.Add(1)
		t.statsVersion.Add(1)
	})
	tx.OnAbort(func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.touch(rid)
		s.head.Store(nil)
		for _, idx := range t.indexes {
			idx.remove(coerced[idx.ord()], rid)
		}
	})
	return nil
}

// InsertMany appends many rows. On a managed table with a nil tx the whole
// batch commits as one implicit transaction (generators and bulk loads pay
// one epoch and one WAL record instead of one per row).
func (t *Table) InsertMany(tx *txn.Txn, rows [][]sqltypes.Value) error {
	if t.mgr != nil && tx == nil {
		return t.autocommit(func(tx *txn.Txn) error {
			for _, r := range rows {
				coerced, err := t.coerce(r)
				if err != nil {
					return err
				}
				if err := t.insertTx(tx, coerced); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, r := range rows {
		if err := t.Insert(tx, r); err != nil {
			return err
		}
	}
	return nil
}

// Row returns the version of row rid visible to snap without charging I/O
// (internal use). Returns nil when the row does not exist at that snapshot.
func (t *Table) Row(snap *txn.Snapshot, rid int) []sqltypes.Value {
	t.mu.RLock()
	if rid < 0 || rid >= len(t.slots) {
		t.mu.RUnlock()
		return nil
	}
	s := t.slots[rid]
	t.mu.RUnlock()
	v := txn.Visible(s.head.Load(), snap)
	if v == nil || v.IsTombstone() {
		return nil
	}
	return v.Row
}

// Scan iterates over the rows visible to snap in insertion order, charging
// one logical read per row. The callback must not retain the row slice.
// Iteration stops early when the callback returns false. A nil snap sees
// the latest committed state.
//
// The slot slice is copied under the read lock, then the chains are walked
// lock-free: the callback runs with no table lock held, so long scans
// never block writers.
func (t *Table) Scan(snap *txn.Snapshot, stats *Stats, fn func(rid int, row []sqltypes.Value) bool) {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	for rid, s := range slots {
		v := txn.Visible(s.head.Load(), snap)
		if v == nil || v.IsTombstone() {
			continue
		}
		if stats != nil {
			stats.LogicalReads.Add(1)
		}
		if !fn(rid, v.Row) {
			return
		}
	}
}

// Update replaces the row rid with row. A write conflict (another
// transaction's uncommitted version on the row, or a version committed
// after tx's snapshot) fails immediately with txn.ErrWriteConflict:
// first-writer-wins.
func (t *Table) Update(tx *txn.Txn, rid int, row []sqltypes.Value) error {
	coerced, err := t.coerce(row)
	if err != nil {
		return err
	}
	if t.mgr != nil && tx == nil {
		return t.autocommit(func(tx *txn.Txn) error { return t.writeTx(tx, rid, coerced, false) })
	}
	if tx == nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		if rid < 0 || rid >= len(t.slots) {
			return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
		}
		s := t.slots[rid]
		head := s.head.Load()
		if head == nil || head.IsTombstone() {
			return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
		}
		old := head.Row
		for _, idx := range t.indexes {
			idx.remove(old[idx.ord()], rid)
			idx.add(coerced[idx.ord()], rid)
		}
		t.touch(rid)
		s.head.Store(txn.NewCommittedVersion(coerced, nil, 0))
		t.statsVersion.Add(1)
		return nil
	}
	return t.writeTx(tx, rid, coerced, false)
}

// Delete removes the row rid by appending a tombstone version. Conflict
// rules match Update.
func (t *Table) Delete(tx *txn.Txn, rid int) error {
	if t.mgr != nil && tx == nil {
		return t.autocommit(func(tx *txn.Txn) error { return t.writeTx(tx, rid, nil, true) })
	}
	if tx == nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		if rid < 0 || rid >= len(t.slots) {
			return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
		}
		s := t.slots[rid]
		head := s.head.Load()
		if head == nil || head.IsTombstone() {
			return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
		}
		old := head.Row
		for _, idx := range t.indexes {
			idx.remove(old[idx.ord()], rid)
		}
		t.touch(rid)
		s.head.Store(nil)
		t.liveRows.Add(-1)
		t.statsVersion.Add(1)
		return nil
	}
	return t.writeTx(tx, rid, nil, true)
}

// writeTx applies a transactional update (tombstone=false, coerced is the
// new row) or delete (tombstone=true) to slot rid, with first-writer-wins
// conflict detection.
func (t *Table) writeTx(tx *txn.Txn, rid int, coerced []sqltypes.Value, tombstone bool) error {
	if tx.Done() {
		return txn.ErrTxnDone
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rid < 0 || rid >= len(t.slots) {
		return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
	}
	s := t.slots[rid]
	head := s.head.Load()
	if head == nil {
		return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
	}
	if owner, ok := head.Owner(); ok {
		if owner != tx.ID {
			return t.conflict()
		}
		// Rewriting our own uncommitted version: replace it in place so the
		// chain holds at most one version per transaction.
		if head.IsTombstone() {
			return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
		}
		return t.replaceOwnVersion(tx, s, rid, head, coerced, tombstone)
	}
	epoch, _ := head.Committed()
	if epoch > tx.Snapshot().Epoch {
		// Committed after our snapshot: first committer won.
		return t.conflict()
	}
	if head.IsTombstone() {
		return fmt.Errorf("storage: table %s has no row %d", t.Name, rid)
	}
	v := txn.NewVersion(coerced, head, tx.ID)
	t.touch(rid)
	s.head.Store(v)
	tx.Track(v)
	if tombstone {
		tx.Log(txn.Mutation{Table: t.Name, Op: txn.MutDelete, Rid: rid})
		tx.OnCommit(func(uint64) {
			t.liveRows.Add(-1)
			t.statsVersion.Add(1)
			t.mgr.NoteGarbage(1)
		})
	} else {
		for _, idx := range t.indexes {
			idx.add(coerced[idx.ord()], rid)
		}
		tx.Log(txn.Mutation{Table: t.Name, Op: txn.MutUpdate, Rid: rid, Row: coerced})
		tx.OnCommit(func(uint64) {
			t.statsVersion.Add(1)
			t.mgr.NoteGarbage(1)
		})
	}
	tx.OnAbort(func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.touch(rid)
		s.head.Store(head)
		if !tombstone {
			t.dropKeyUnlessChained(coerced, head, rid)
		}
	})
	return nil
}

// replaceOwnVersion swaps the transaction's own uncommitted head for a new
// version with the same predecessor. The old version stays in tx's track
// list but is unreachable, so its commit stamp is harmless.
func (t *Table) replaceOwnVersion(tx *txn.Txn, s *slot, rid int, head *txn.Version, coerced []sqltypes.Value, tombstone bool) error {
	v := txn.NewVersion(coerced, head.Prev(), tx.ID)
	t.touch(rid)
	s.head.Store(v)
	tx.Track(v)
	if !tombstone {
		for _, idx := range t.indexes {
			idx.add(coerced[idx.ord()], rid)
		}
	}
	t.dropKeyUnlessChained(head.Row, v, rid)
	if tombstone {
		tx.Log(txn.Mutation{Table: t.Name, Op: txn.MutDelete, Rid: rid})
		// Always decrement at commit: for a pre-existing row this retires
		// it; for a row this transaction inserted it cancels the insert
		// hook's pending +1.
		tx.OnCommit(func(uint64) {
			t.liveRows.Add(-1)
			t.statsVersion.Add(1)
			t.mgr.NoteGarbage(1)
		})
	} else {
		tx.Log(txn.Mutation{Table: t.Name, Op: txn.MutUpdate, Rid: rid, Row: coerced})
	}
	tx.OnAbort(func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.touch(rid)
		s.head.Store(head)
		if !tombstone {
			t.dropKeyUnlessChained(coerced, head, rid)
		}
		if head.Row != nil {
			for _, idx := range t.indexes {
				idx.add(head.Row[idx.ord()], rid)
			}
		}
	})
	return nil
}

// dropKeyUnlessChained removes row's index entries for rid unless some
// version still reachable from chainHead carries the same key (index
// entries are deduplicated per (key, rid)). Callers hold the write lock.
func (t *Table) dropKeyUnlessChained(row []sqltypes.Value, chainHead *txn.Version, rid int) {
	if row == nil {
		return
	}
	for _, idx := range t.indexes {
		key := row[idx.ord()]
		keep := false
		for v := chainHead; v != nil; v = v.Prev() {
			if v.Row != nil && sqltypes.Equal(v.Row[idx.ord()], key) {
				keep = true
				break
			}
		}
		if !keep {
			idx.remove(key, rid)
		}
	}
}

// Truncate removes all rows. On a managed table every live row gets a
// tombstone version in the (possibly implicit) transaction — old snapshots
// keep seeing the rows, and ROLLBACK restores them; the WAL carries a
// single truncate record. Unmanaged tables clear in place.
func (t *Table) Truncate(tx *txn.Txn) error {
	if t.mgr != nil && tx == nil {
		return t.autocommit(func(tx *txn.Txn) error { return t.truncateTx(tx) })
	}
	if tx == nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.slots = nil
		t.resetChunks()
		for _, idx := range t.indexes {
			idx.clear()
		}
		t.statsVersion.Add(max(1, uint64(t.liveRows.Swap(0))))
		return nil
	}
	return t.truncateTx(tx)
}

func (t *Table) truncateTx(tx *txn.Txn) error {
	if tx.Done() {
		return txn.ErrTxnDone
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// First-writer-wins over the whole table: any foreign uncommitted
	// version aborts the truncate before it tombstones anything.
	for _, s := range t.slots {
		head := s.head.Load()
		if head == nil {
			continue
		}
		if owner, ok := head.Owner(); ok && owner != tx.ID {
			return t.conflict()
		}
		if epoch, ok := head.Committed(); ok && epoch > tx.Snapshot().Epoch {
			return t.conflict()
		}
	}
	var killed int64
	for rid, s := range t.slots {
		head := s.head.Load()
		if head == nil || head.IsTombstone() {
			continue
		}
		var v *txn.Version
		if _, ok := head.Owner(); ok {
			v = txn.NewVersion(nil, head.Prev(), tx.ID)
			t.dropKeyUnlessChained(head.Row, v, rid)
		} else {
			v = txn.NewVersion(nil, head, tx.ID)
		}
		t.touch(rid)
		s.head.Store(v)
		tx.Track(v)
		restore := head
		slotRef := s
		tx.OnAbort(func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.touch(rid)
			slotRef.head.Store(restore)
			if restore.Row != nil {
				for _, idx := range t.indexes {
					idx.add(restore.Row[idx.ord()], rid)
				}
			}
		})
		// Every tombstoned slot decrements at commit: pre-existing rows
		// retire, own uncommitted inserts cancel their pending +1.
		killed++
	}
	tx.Log(txn.Mutation{Table: t.Name, Op: txn.MutTruncate, Rid: 0})
	n := killed
	garbage := len(t.slots)
	tx.OnCommit(func(uint64) {
		t.liveRows.Add(-n)
		t.statsVersion.Add(max(1, uint64(n)))
		t.mgr.NoteGarbage(garbage)
	})
	return nil
}

// CreateIndex builds an ordered index on the named column, covering every
// version any live snapshot could still see. Creating an index that
// already exists is a no-op. A new index drops the cached statistics,
// which have no histogram for its column.
//
// The build gathers each chain version's (key, rid) once and sorts them
// (OrderedIndex.load), which costs about what a hash build does; adding
// them one by one costs a binary search and a memmove each.
func (t *Table) CreateIndex(column string) error {
	ord := t.Schema.Ordinal(column)
	if ord < 0 {
		return fmt.Errorf("storage: table %s has no column %q", t.Name, column)
	}
	t.mu.Lock()
	key := t.Schema.Columns[ord].Name
	_, exists := t.indexes[key]
	if !exists {
		t.indexes[key] = t.buildIndex(ord)
	}
	t.mu.Unlock()
	// After the unlock: Statistics takes statsMu before mu.
	if !exists {
		t.dropStatistics()
	}
	return nil
}

// buildIndex bulk-loads an index over column ord from every chain
// version. Callers hold the write lock.
func (t *Table) buildIndex(ord int) *OrderedIndex {
	es := make([]entry, 0, len(t.slots))
	for rid, s := range t.slots {
		for v := s.head.Load(); v != nil; v = v.Prev() {
			if v.Row != nil && !v.Row[ord].IsNull() {
				es = append(es, entry{v.Row[ord], rid})
			}
		}
	}
	idx := newOrderedIndex(ord)
	idx.load(es)
	return idx
}

// Index returns the index on the named column, or nil.
func (t *Table) Index(column string) *OrderedIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ord := t.Schema.Ordinal(column)
	if ord < 0 {
		return nil
	}
	return t.indexes[t.Schema.Columns[ord].Name]
}

// IndexColumns returns the indexed column names, sorted for deterministic
// checkpoint images and system-table output.
func (t *Table) IndexColumns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cols := make([]string, 0, len(t.indexes))
	for name := range t.indexes {
		cols = append(cols, name)
	}
	sort.Strings(cols)
	return cols
}

// Seek looks up rows whose indexed column equals key via the index on the
// named column, charging one index seek plus one logical read per visible
// row. It returns false when no such index exists. The candidate rids are
// gathered into *buf, which the caller keeps between seeks so a seek
// allocates nothing; a nil buf gathers them into a fresh slice.
//
// Index entries are written eagerly by uncommitted transactions and
// retained for old snapshots after updates, so each candidate's visible
// version is re-verified against the key before it is emitted.
func (t *Table) Seek(snap *txn.Snapshot, stats *Stats, column string, key sqltypes.Value, buf *[]int, fn func(rid int, row []sqltypes.Value) bool) bool {
	ord := t.Schema.Ordinal(column)
	if ord < 0 {
		return false
	}
	var rids []int
	if buf != nil {
		rids = (*buf)[:0]
	}
	t.mu.RLock()
	idx := t.indexes[t.Schema.Columns[ord].Name]
	if idx == nil {
		t.mu.RUnlock()
		return false
	}
	if !key.IsNull() {
		rids = idx.appendRange(rids, key, key, false, false)
	}
	slots := t.slots
	t.mu.RUnlock()
	if buf != nil {
		*buf = rids
	}
	if stats != nil {
		stats.IndexSeeks.Add(1)
	}
	for _, rid := range rids {
		if rid >= len(slots) {
			continue
		}
		v := txn.Visible(slots[rid].head.Load(), snap)
		if v == nil || v.IsTombstone() || !sqltypes.Equal(v.Row[ord], key) {
			continue
		}
		if stats != nil {
			stats.LogicalReads.Add(1)
		}
		if !fn(rid, v.Row) {
			break
		}
	}
	return true
}

// Vacuum reclaims versions no snapshot at or after epoch oldest can see:
// chains are cut below their newest version committed ≤ oldest, and slots
// whose surviving version is a tombstone are emptied. Index entries that
// pointed only at reclaimed versions are dropped.
func (t *Table) Vacuum(oldest uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for rid, s := range t.slots {
		head := s.head.Load()
		if head == nil {
			continue
		}
		// Find the newest version every live snapshot can rely on.
		var w *txn.Version
		for v := head; v != nil; v = v.Prev() {
			if e, ok := v.Committed(); ok && e <= oldest {
				w = v
				break
			}
		}
		if w == nil {
			continue
		}
		if w == head && head.IsTombstone() {
			// The whole slot is dead to every current and future snapshot.
			for v := head; v != nil; v = v.Prev() {
				if v.Row != nil {
					for _, idx := range t.indexes {
						idx.remove(v.Row[idx.ord()], rid)
					}
				}
			}
			t.touch(rid)
			s.head.Store(nil)
			continue
		}
		if w.Prev() == nil {
			continue
		}
		// Cut the chain below w, then drop index entries whose key no
		// longer appears in the surviving chain.
		dead := w.Prev()
		w.SetPrev(nil)
		for v := dead; v != nil; v = v.Prev() {
			t.dropKeyUnlessChained(v.Row, head, rid)
		}
	}
}

// CheckpointSlots returns each slot's row image as visible at epoch (nil
// for dead slots), preserving slot order and count for rid stability.
// Called with the commit lock held so the image is a consistent cut.
func (t *Table) CheckpointSlots(epoch uint64) [][]sqltypes.Value {
	snap := &txn.Snapshot{Epoch: epoch}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]sqltypes.Value, len(t.slots))
	for rid, s := range t.slots {
		v := txn.Visible(s.head.Load(), snap)
		if v == nil || v.IsTombstone() {
			continue
		}
		out[rid] = v.Row
	}
	return out
}

// LoadCheckpointSlots installs a checkpoint image (recovery). The table
// must be empty; rows are assumed already coerced (they were written by
// the codec that checkpointed them). Existing indexes are rebuilt over the
// loaded rows with one sort each.
func (t *Table) LoadCheckpointSlots(rows [][]sqltypes.Value) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slots = make([]*slot, len(rows))
	var live int64
	for rid, row := range rows {
		s := &slot{}
		if row != nil {
			s.head.Store(txn.NewCommittedVersion(row, nil, 0))
			live++
		}
		t.slots[rid] = s
	}
	t.resetChunks()
	for col, idx := range t.indexes {
		t.indexes[col] = t.buildIndex(idx.ord())
	}
	t.liveRows.Store(live)
	t.statsVersion.Add(1)
}

// ReplayApply re-executes one logged mutation at the given commit epoch
// (recovery). Slot ids are trusted: inserts extend the slot array as
// needed so replay lands every row at its original rid.
func (t *Table) ReplayApply(m txn.Mutation, epoch uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch m.Op {
	case txn.MutInsert:
		for len(t.slots) < m.Rid {
			t.touch(len(t.slots))
			t.slots = append(t.slots, &slot{})
		}
		t.touch(m.Rid)
		s := &slot{}
		s.head.Store(txn.NewCommittedVersion(m.Row, nil, epoch))
		if m.Rid == len(t.slots) {
			t.slots = append(t.slots, s)
		} else {
			if old := t.slots[m.Rid].head.Load(); old != nil && old.Row != nil {
				for _, idx := range t.indexes {
					idx.remove(old.Row[idx.ord()], m.Rid)
				}
				t.liveRows.Add(-1)
			}
			t.slots[m.Rid] = s
		}
		for _, idx := range t.indexes {
			idx.add(m.Row[idx.ord()], m.Rid)
		}
		t.liveRows.Add(1)
	case txn.MutUpdate:
		if m.Rid < 0 || m.Rid >= len(t.slots) {
			return fmt.Errorf("storage: replay update of %s row %d out of range", t.Name, m.Rid)
		}
		s := t.slots[m.Rid]
		if old := s.head.Load(); old != nil && old.Row != nil {
			for _, idx := range t.indexes {
				idx.remove(old.Row[idx.ord()], m.Rid)
			}
		}
		t.touch(m.Rid)
		s.head.Store(txn.NewCommittedVersion(m.Row, nil, epoch))
		for _, idx := range t.indexes {
			idx.add(m.Row[idx.ord()], m.Rid)
		}
	case txn.MutDelete:
		if m.Rid < 0 || m.Rid >= len(t.slots) {
			return fmt.Errorf("storage: replay delete of %s row %d out of range", t.Name, m.Rid)
		}
		s := t.slots[m.Rid]
		if old := s.head.Load(); old != nil && old.Row != nil {
			for _, idx := range t.indexes {
				idx.remove(old.Row[idx.ord()], m.Rid)
			}
			t.liveRows.Add(-1)
		}
		t.touch(m.Rid)
		s.head.Store(nil)
	case txn.MutTruncate:
		for rid, s := range t.slots {
			if old := s.head.Load(); old != nil && old.Row != nil {
				for _, idx := range t.indexes {
					idx.remove(old.Row[idx.ord()], rid)
				}
			}
			t.touch(rid)
			s.head.Store(nil)
		}
		t.statsVersion.Add(uint64(t.liveRows.Swap(0)))
	default:
		return fmt.Errorf("storage: replay of unknown mutation op %d", m.Op)
	}
	t.statsVersion.Add(1)
	return nil
}
