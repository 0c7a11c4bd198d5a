package storage

import (
	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// Cursor is a resumable, snapshot-visible scan over a frozen range of a
// table's slots. The slot slice is captured once, by OpenCursor (under the
// table's read lock), so iteration is bounded even while concurrent inserts
// grow the table — the same guarantee the old materialize-at-Open scan gave
// — but rows are produced incrementally: a consumer that stops early (TOP,
// early cursor close) never pays for, or buffers, the rows it did not read.
//
// Version chains are walked lock-free per slot, exactly like Table.Scan, and
// each visible row charges one logical read to the Stats passed to Next.
// With a ChunkFilter set, a row the filter rejects from the column chunks
// (chunk.go) is skipped without loading its slot, version or row, and is
// charged its read all the same.
type Cursor struct {
	t      *Table
	slots  []*slot
	chunks []*chunkRange
	snap   *txn.Snapshot
	pos    int

	filter ChunkFilter
	// The chunk range the cursor is in: its bookkeeping, first slot and
	// the cursor's slots in it; live is nil unless a column chunk of the
	// range was trusted, and rej holds the rows the filter rejected.
	rng   *chunkRange
	base  int
	span  int
	live  *Bitmap
	rej   Bitmap
	again bool // call the filter again after the next delivered row
}

// OpenCursor points c at every slot the table has now, read at snap, with
// no filter, visiting rows in insertion (slot) order — the serial scan
// order. An operator re-opens its one cursor, so a scan allocates none.
func (t *Table) OpenCursor(c *Cursor, snap *txn.Snapshot) {
	*c = Cursor{t: t, snap: snap}
	t.mu.RLock()
	c.slots, c.chunks = t.slots, t.chunks
	t.mu.RUnlock()
}

// SetFilter makes the cursor skip the rows f rejects from column chunks.
// Call it before the first Next.
func (c *Cursor) SetFilter(f ChunkFilter) { c.filter = f }

// Column returns the chunk of column ord for the range the cursor is
// entering, building it on first use, or nil when the column is not an
// Int, Date or Float column or the chunk cannot stand for the heads this
// cursor's snapshot sees. Only a ChunkFilter calls it, from Reject.
func (c *Cursor) Column(ord int) *ColChunk {
	kind := chunkKind(c.t.Schema.Columns[ord].Type)
	if kind == sqltypes.KindNull {
		return nil
	}
	cc := c.rng.cols[ord].Load()
	if cc == nil || cc.gen != c.rng.gen.Load() {
		cc = c.build(ord, kind)
	}
	if cc == nil || !cc.trusted(c.rng, c.span, c.snap) {
		return nil
	}
	c.live = &cc.live
	return cc
}

// build makes the chunk of column ord for the cursor's range. It gives up
// rather than wait for a writer.
func (c *Cursor) build(ord int, kind sqltypes.Kind) *ColChunk {
	t := c.t
	if !t.mu.TryRLock() {
		return nil
	}
	defer t.mu.RUnlock()
	k := c.base >> chunkShift
	if k >= len(t.chunks) || t.chunks[k] != c.rng {
		return nil // the slot array was replaced
	}
	return t.buildChunk(k, ord, kind)
}

// enter moves the cursor into the chunk range starting at slot i and runs
// the filter over it.
func (c *Cursor) enter(i int) {
	c.live, c.again = nil, false
	k := i >> chunkShift
	if k >= len(c.chunks) {
		return
	}
	c.rng, c.base, c.span = c.chunks[k], i, min(ChunkSlots, len(c.slots)-i)
	c.reject()
}

// reject runs the filter over the cursor's range.
func (c *Cursor) reject() {
	c.live, c.rej = nil, Bitmap{}
	c.again = c.filter.Reject(c, c.span, &c.rej)
}

// Next delivers up to max visible rows to fn and returns the number of rows
// it visited: those delivered and those rejected from chunks. A return of
// 0 (with max > 0) means the cursor is exhausted. Each visited row charges
// stats one logical read, added once per call. The delivered row slices
// are committed version payloads and must be treated as immutable;
// retaining them is safe.
func (c *Cursor) Next(stats *Stats, max int, fn func(row []sqltypes.Value)) int {
	n, rejected := 0, 0
	for c.pos < len(c.slots) && n < max {
		i := c.pos
		c.pos++
		if c.filter != nil && i&(ChunkSlots-1) == 0 {
			c.enter(i)
		}
		if c.live != nil {
			j := i - c.base
			if !c.live.has(j) {
				continue
			}
			if c.rej.has(j) {
				rejected++
				n++
				continue
			}
		}
		v := txn.Visible(c.slots[i].head.Load(), c.snap)
		if v == nil || v.IsTombstone() {
			continue
		}
		fn(v.Row)
		n++
		if c.again {
			c.reject()
		}
	}
	if stats != nil && n > 0 {
		stats.LogicalReads.Add(int64(n))
	}
	if rejected > 0 {
		c.t.chunkRejects.Add(int64(rejected))
	}
	return n
}
