package storage

import (
	"sync/atomic"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// Typed column chunks let a filtered scan reject a row without loading its
// slot, version or row. A table's slots are cut into chunk ranges of
// ChunkSlots; for a column an Int, Date or Float scan filter reads, a chunk
// holds the range's values as one int64 or float64 array, a NULL bitmap and
// a bitmap of the slots whose head is a row (not a tombstone or empty).
//
// Validity. A chunk is a copy of the range's version-chain heads, taken
// under the table's read lock (so no writer is between bumping and linking)
// and stamped with the range's generation at that moment. Every writer
// bumps the generation of a range before it links a version into, or
// appends a slot to, that range: insert, update, delete, truncate,
// rollback, vacuum, checkpoint load and replay. A cursor trusts a chunk
// only while
//
//   - its generation still equals the range's, so the heads are the ones
//     it was built from;
//   - every head was committed at build, so no transaction's own
//     uncommitted write hides behind it;
//   - the cursor's snapshot epoch is at least the newest head's commit
//     epoch, so every head is the version the snapshot sees.
//
// A writer that bumps after the check links a version committed after the
// cursor's snapshot (or never committed), which the snapshot does not see,
// so the check holds for the whole chunk. A skipped live slot is charged
// its logical read like a loaded one: a scan costs N reads either way.

const (
	chunkShift = 10
	// ChunkSlots is the number of slots one chunk range covers.
	ChunkSlots = 1 << chunkShift
)

// Bitmap holds one bit per slot of a chunk range.
type Bitmap [ChunkSlots / 64]uint64

func (b *Bitmap) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b *Bitmap) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// chunkRange is the write bookkeeping of ChunkSlots consecutive slots: the
// generation writers bump, and the column chunks built so far, by column
// ordinal.
type chunkRange struct {
	gen  atomic.Uint64
	cols []atomic.Pointer[ColChunk]
}

// ColChunk is one column of one chunk range in typed form. The payload of
// a NULL, dead or tombstoned slot is zero.
type ColChunk struct {
	// Kind is the column's value kind: KindInt, KindDate or KindFloat.
	Kind sqltypes.Kind
	// Ints holds the payload of an Int or Date column, Floats that of a
	// Float column, one entry per slot of the range.
	Ints   []int64
	Floats []float64
	// Null marks the live slots whose value is NULL.
	Null Bitmap

	live     Bitmap
	n        int    // slots the chunk covers
	gen      uint64 // the range's generation at build
	maxEpoch uint64 // newest commit epoch among the heads
	mixed    bool   // a value of another kind: never trusted
}

// chunkKind is the value kind column t of a chunk holds, or KindNull when
// the column is not chunked.
func chunkKind(t sqltypes.Type) sqltypes.Kind {
	switch k := t.Kind(); k {
	case sqltypes.KindInt, sqltypes.KindDate, sqltypes.KindFloat:
		return k
	}
	return sqltypes.KindNull
}

// touch bumps the generation of rid's chunk range, creating the ranges up
// to it. Callers hold the write lock and call it before they link a
// version into rid's slot or append that slot. An unmanaged table keeps no
// chunks: its cursors never read them.
func (t *Table) touch(rid int) {
	if t.mgr == nil {
		return
	}
	k := rid >> chunkShift
	for len(t.chunks) <= k {
		t.chunks = append(t.chunks, &chunkRange{cols: make([]atomic.Pointer[ColChunk], t.Schema.Len())})
	}
	t.chunks[k].gen.Add(1)
}

// resetChunks drops every chunk range: the slot array was replaced. The
// ranges of the new array are created by touch.
func (t *Table) resetChunks() {
	t.chunks = nil
	for rid := 0; rid < len(t.slots); rid += ChunkSlots {
		t.touch(rid)
	}
}

// buildChunk copies column ord of range k from the slot heads. It returns
// nil, publishing nothing, when a head is uncommitted (the transaction may
// commit without a bump), and a chunk marked mixed when a value has another
// kind. Callers hold the read lock.
func (t *Table) buildChunk(k, ord int, kind sqltypes.Kind) *ColChunk {
	r := t.chunks[k]
	base := k << chunkShift
	heads := t.slots[base:min(len(t.slots), base+ChunkSlots)]
	cc := &ColChunk{Kind: kind, n: len(heads), gen: r.gen.Load()}
	if kind == sqltypes.KindFloat {
		cc.Floats = make([]float64, len(heads))
	} else {
		cc.Ints = make([]int64, len(heads))
	}
	for i, s := range heads {
		v := s.head.Load()
		if v == nil {
			continue
		}
		e, ok := v.Committed()
		if !ok {
			return nil
		}
		cc.maxEpoch = max(cc.maxEpoch, e)
		if v.IsTombstone() {
			continue
		}
		cc.live.set(i)
		switch x := v.Row[ord]; x.Kind() {
		case sqltypes.KindNull:
			cc.Null.set(i)
		case kind:
			if kind == sqltypes.KindFloat {
				cc.Floats[i] = x.Float()
			} else {
				cc.Ints[i] = x.Int()
			}
		default:
			cc.mixed = true
		}
	}
	r.cols[ord].Store(cc)
	return cc
}

// trusted reports whether cc may stand for the heads of its range, as a
// cursor over the range's first span slots at snap sees them.
func (cc *ColChunk) trusted(r *chunkRange, span int, snap *txn.Snapshot) bool {
	return !cc.mixed && cc.gen == r.gen.Load() && cc.n >= span &&
		(snap == nil || snap.Epoch >= cc.maxEpoch)
}

// ChunkFilter rejects rows of a chunk range from its column chunks. Reject
// is called when a cursor enters a range; it reads columns through
// cur.Column and sets in rej the slots in [0, n) whose rows it rejects. A
// slot it leaves clear is loaded and delivered as usual. Reject returns
// true when delivering a row may let it reject more (its predicate binds
// an operand at the first row that reaches it); the cursor then calls it
// again, on a cleared rej, after the next row it delivers in the range.
type ChunkFilter interface {
	Reject(cur *Cursor, n int, rej *Bitmap) (again bool)
}

// ChunkRejects returns how many rows cursors rejected from this table's
// column chunks without loading them.
func (t *Table) ChunkRejects() int64 { return t.chunkRejects.Load() }
