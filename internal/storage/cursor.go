package storage

import (
	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// Cursor is a resumable, snapshot-visible scan over a frozen range of a
// table's slots. The slot slice is captured once at creation (under the
// table's read lock), so iteration is bounded even while concurrent inserts
// grow the table — the same guarantee the old materialize-at-Open scan gave
// — but rows are produced incrementally: a consumer that stops early (TOP,
// early cursor close) never pays for, or buffers, the rows it did not read.
//
// Version chains are walked lock-free per slot, exactly like Table.Scan, and
// each visible row charges one logical read to the Stats passed to Next.
type Cursor struct {
	slots []*slot
	snap  *txn.Snapshot
	pos   int
}

// NewCursor returns a cursor over every slot of the table, visiting rows in
// insertion (slot) order — the serial scan order.
func (t *Table) NewCursor(snap *txn.Snapshot) *Cursor {
	t.mu.RLock()
	slots := t.slots
	t.mu.RUnlock()
	return &Cursor{slots: slots, snap: snap}
}

// Next delivers up to max visible rows to fn, charging stats one logical
// read per row, and returns the number delivered. A return of 0 (with
// max > 0) means the cursor is exhausted. The delivered row slices are
// committed version payloads and must be treated as immutable; retaining
// them is safe.
func (c *Cursor) Next(stats *Stats, max int, fn func(row []sqltypes.Value)) int {
	n := 0
	for c.pos < len(c.slots) && n < max {
		s := c.slots[c.pos]
		c.pos++
		v := txn.Visible(s.head.Load(), c.snap)
		if v == nil || v.IsTombstone() {
			continue
		}
		if stats != nil {
			stats.LogicalReads.Add(1)
		}
		fn(v.Row)
		n++
	}
	return n
}
