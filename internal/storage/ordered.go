package storage

import (
	"cmp"
	"slices"
	"sort"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// OrderedIndex is the table's one index kind, a B-tree-style ordered
// index: entries are kept sorted by (key, rid) across a two-level page
// structure, so equality lookups (Table.Seek) and range seeks
// (Table.SeekRange) are both binary searches, and inserts never memmove
// more than one page.
//
// Mutation methods are called with the table write lock held; lookups run
// under the read lock and return a freshly allocated slice. NULL keys are
// never indexed (SQL equality and range comparisons never match NULL), and
// entries are deduplicated per (key, rid): a rid appears at most once under
// a given key no matter how many chain versions carry it.
type OrderedIndex struct {
	ordinal int
	pages   [][]entry // each page non-empty, globally sorted by (key, rid)
}

type entry struct {
	key sqltypes.Value
	rid int
}

// orderedPageCap is the page size a bulk load cuts and the split
// threshold: a page that grows past twice this splits in half, keeping
// per-insert memmove cost bounded regardless of table size.
const orderedPageCap = 256

func newOrderedIndex(ordinal int) *OrderedIndex {
	return &OrderedIndex{ordinal: ordinal}
}

// ord is the indexed column's schema ordinal.
func (ix *OrderedIndex) ord() int { return ix.ordinal }

// cmpEntry orders entries by key, then rid. Incomparable keys cannot
// occur within one column (every value is coerced to the column type
// before indexing), so a failed comparison falls back to rid order.
func cmpEntry(aKey sqltypes.Value, aRid int, bKey sqltypes.Value, bRid int) int {
	if c, ok := sqltypes.Compare(aKey, bKey); ok && c != 0 {
		return c
	}
	return cmp.Compare(aRid, bRid)
}

// load replaces the index contents with es (non-NULL keys, in any order):
// one sort, one pass dropping repeated (key, rid) pairs, and pages cut at
// orderedPageCap. Each page gets its own capacity, so a later add into one
// page reallocates it instead of writing into its neighbour.
func (ix *OrderedIndex) load(es []entry) {
	slices.SortFunc(es, func(a, b entry) int { return cmpEntry(a.key, a.rid, b.key, b.rid) })
	w := 0
	for _, e := range es {
		if w > 0 && es[w-1].rid == e.rid && sqltypes.Equal(es[w-1].key, e.key) {
			continue
		}
		es[w] = e
		w++
	}
	es = es[:w]
	ix.pages = nil
	for len(es) > 0 {
		n := min(len(es), orderedPageCap)
		ix.pages = append(ix.pages, es[:n:n])
		es = es[n:]
	}
}

// pageFor returns the index of the first page whose last entry is >=
// (key, rid) — the page the entry lives in or belongs in. Returns
// len(pages) when every page sorts entirely before the entry.
func (ix *OrderedIndex) pageFor(key sqltypes.Value, rid int) int {
	return sort.Search(len(ix.pages), func(p int) bool {
		pg := ix.pages[p]
		last := pg[len(pg)-1]
		return cmpEntry(last.key, last.rid, key, rid) >= 0
	})
}

func (ix *OrderedIndex) add(key sqltypes.Value, rid int) {
	if key.IsNull() {
		return
	}
	if len(ix.pages) == 0 {
		ix.pages = append(ix.pages, []entry{{key, rid}})
		return
	}
	p := ix.pageFor(key, rid)
	if p == len(ix.pages) {
		p-- // past every page: append to the last one
	}
	pg := ix.pages[p]
	i := sort.Search(len(pg), func(i int) bool {
		return cmpEntry(pg[i].key, pg[i].rid, key, rid) >= 0
	})
	if i < len(pg) && pg[i].rid == rid && sqltypes.Equal(pg[i].key, key) {
		return // deduplicate per (key, rid)
	}
	pg = append(pg, entry{})
	copy(pg[i+1:], pg[i:])
	pg[i] = entry{key, rid}
	ix.pages[p] = pg
	if len(pg) > 2*orderedPageCap {
		ix.split(p)
	}
}

// split halves page p in place.
func (ix *OrderedIndex) split(p int) {
	pg := ix.pages[p]
	mid := len(pg) / 2
	left := append([]entry(nil), pg[:mid]...)
	right := append([]entry(nil), pg[mid:]...)
	ix.pages = append(ix.pages, nil)
	copy(ix.pages[p+2:], ix.pages[p+1:])
	ix.pages[p] = left
	ix.pages[p+1] = right
}

func (ix *OrderedIndex) remove(key sqltypes.Value, rid int) {
	if key.IsNull() {
		return
	}
	p := ix.pageFor(key, rid)
	if p >= len(ix.pages) {
		return
	}
	pg := ix.pages[p]
	i := sort.Search(len(pg), func(i int) bool {
		return cmpEntry(pg[i].key, pg[i].rid, key, rid) >= 0
	})
	if i >= len(pg) || pg[i].rid != rid || !sqltypes.Equal(pg[i].key, key) {
		return
	}
	copy(pg[i:], pg[i+1:])
	pg = pg[:len(pg)-1]
	if len(pg) == 0 {
		ix.pages = append(ix.pages[:p], ix.pages[p+1:]...)
		return
	}
	ix.pages[p] = pg
}

func (ix *OrderedIndex) clear() { ix.pages = nil }

// lookup returns the rids whose key equals the given value, in rid order:
// a degenerate range.
func (ix *OrderedIndex) lookup(key sqltypes.Value) []int {
	if key.IsNull() {
		return nil
	}
	return ix.rangeRids(key, key, false, false)
}

// rangeRids returns the rids of every entry whose key falls in [lo, hi]
// (strict flags make a bound exclusive). A NULL bound means unbounded on
// that side. The low end is a binary search; the run up to the first entry
// past hi is counted, then copied, so the result is one exact allocation,
// in (key, rid) order. Callers may use it after releasing the table lock.
func (ix *OrderedIndex) rangeRids(lo, hi sqltypes.Value, loStrict, hiStrict bool) []int {
	clearsLo := func(k sqltypes.Value) bool {
		c, ok := sqltypes.Compare(k, lo)
		return ok && (c > 0 || c == 0 && !loStrict)
	}
	p, i := 0, 0
	if !lo.IsNull() {
		p = sort.Search(len(ix.pages), func(p int) bool {
			pg := ix.pages[p]
			return clearsLo(pg[len(pg)-1].key)
		})
		if p < len(ix.pages) {
			pg := ix.pages[p]
			i = sort.Search(len(pg), func(i int) bool { return clearsLo(pg[i].key) })
		}
	}
	n := 0
count:
	for q, j := p, i; q < len(ix.pages); q, j = q+1, 0 {
		for _, e := range ix.pages[q][j:] {
			if !hi.IsNull() {
				if c, ok := sqltypes.Compare(e.key, hi); !ok || c > 0 || c == 0 && hiStrict {
					break count
				}
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for ; len(out) < n; p, i = p+1, 0 {
		pg := ix.pages[p][i:]
		for _, e := range pg[:min(len(pg), n-len(out))] {
			out = append(out, e.rid)
		}
	}
	return out
}

// Len returns the total entry count (tests).
func (ix *OrderedIndex) Len() int {
	n := 0
	for _, pg := range ix.pages {
		n += len(pg)
	}
	return n
}

// RangeCursor streams the snapshot-visible rows of one ordered-index range
// in ascending rid (insertion) order — the same emission order as a full
// Scan — so a range-seek plan produces byte-identical output to the
// filtered scan it replaces. The candidate rid set is frozen at SeekRange
// (like Cursor freezes the slot slice), and each candidate's visible
// version is re-verified against the bounds before it is emitted: index
// entries are written eagerly by uncommitted transactions and retained for
// old snapshots, so a pinned snapshot must never trust the entry alone.
type RangeCursor struct {
	slots    []*slot
	rids     []int
	snap     *txn.Snapshot
	pos      int
	ordinal  int
	lo, hi   sqltypes.Value
	loStrict bool
	hiStrict bool
}

// SeekRange opens a range cursor over the index on the named column,
// charging one index seek. It returns ok=false when the column has no
// index. NULL bounds are unbounded on their side (callers resolve SQL's
// NULL-comparison semantics before seeking).
func (t *Table) SeekRange(snap *txn.Snapshot, stats *Stats, column string, lo, hi sqltypes.Value, loStrict, hiStrict bool) (*RangeCursor, bool) {
	ord := t.Schema.Ordinal(column)
	if ord < 0 {
		return nil, false
	}
	t.mu.RLock()
	oix := t.indexes[t.Schema.Columns[ord].Name]
	if oix == nil {
		t.mu.RUnlock()
		return nil, false
	}
	rids := oix.rangeRids(lo, hi, loStrict, hiStrict)
	slots := t.slots
	t.mu.RUnlock()
	if stats != nil {
		stats.IndexSeeks.Add(1)
	}
	// Entries arrive in (key, rid) order; re-sort by rid and deduplicate
	// (one rid can appear under several in-range keys via retained chain
	// versions) so emission order matches Scan exactly.
	sort.Ints(rids)
	w := 0
	for i, rid := range rids {
		if i > 0 && rid == rids[w-1] {
			continue
		}
		rids[w] = rid
		w++
	}
	return &RangeCursor{
		slots: slots, rids: rids[:w], snap: snap, ordinal: ord,
		lo: lo, hi: hi, loStrict: loStrict, hiStrict: hiStrict,
	}, true
}

// Reset rewinds the cursor to its first candidate row.
func (c *RangeCursor) Reset() { c.pos = 0 }

// inRange re-verifies a visible row's key against the seek bounds.
func (c *RangeCursor) inRange(k sqltypes.Value) bool {
	if k.IsNull() {
		return false
	}
	if !c.lo.IsNull() {
		cmp, ok := sqltypes.Compare(k, c.lo)
		if !ok || cmp < 0 || (c.loStrict && cmp == 0) {
			return false
		}
	}
	if !c.hi.IsNull() {
		cmp, ok := sqltypes.Compare(k, c.hi)
		if !ok || cmp > 0 || (c.hiStrict && cmp == 0) {
			return false
		}
	}
	return true
}

// Next delivers up to max visible in-range rows to fn, charging stats one
// logical read per row, and returns the number delivered. A return of 0
// (with max > 0) means the cursor is exhausted. Row slices are committed
// version payloads and must be treated as immutable.
func (c *RangeCursor) Next(stats *Stats, max int, fn func(row []sqltypes.Value)) int {
	n := 0
	for n < max {
		_, row := c.next(stats)
		if row == nil {
			break
		}
		fn(row)
		n++
	}
	return n
}

// Each calls fn with the rid and row of every remaining visible in-range
// row, charging stats one logical read per row, until fn returns false.
func (c *RangeCursor) Each(stats *Stats, fn func(rid int, row []sqltypes.Value) bool) {
	for {
		rid, row := c.next(stats)
		if row == nil || !fn(rid, row) {
			return
		}
	}
}

// next advances to the next visible in-range row and charges its read; a
// nil row means the cursor is exhausted.
func (c *RangeCursor) next(stats *Stats) (int, []sqltypes.Value) {
	for c.pos < len(c.rids) {
		rid := c.rids[c.pos]
		c.pos++
		if rid < 0 || rid >= len(c.slots) {
			continue
		}
		v := txn.Visible(c.slots[rid].head.Load(), c.snap)
		if v == nil || v.IsTombstone() || !c.inRange(v.Row[c.ordinal]) {
			continue
		}
		if stats != nil {
			stats.LogicalReads.Add(1)
		}
		return rid, v.Row
	}
	return 0, nil
}
