package exec

import (
	"fmt"
	"sort"
	"strings"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// ----- Leaf operators -----

// ValuesOp emits a fixed list of rows, each produced by evaluating scalars
// (so VALUES may reference variables and parameters).
type ValuesOp struct {
	Rows [][]Scalar
	pos  int
}

// Open implements Operator.
func (o *ValuesOp) Open(*Ctx) error { o.pos = 0; return nil }

// Next implements Operator.
func (o *ValuesOp) Next(ctx *Ctx) (Row, error) {
	if o.pos >= len(o.Rows) {
		return nil, nil
	}
	scalars := o.Rows[o.pos]
	o.pos++
	row := make(Row, len(scalars))
	for i, s := range scalars {
		v, err := s(ctx, nil)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// Close implements Operator.
func (o *ValuesOp) Close() {}

// OneRowOp emits a single empty row; it feeds projections with no FROM
// clause (SELECT 1 + 2).
type OneRowOp struct {
	done bool
}

// Open implements Operator.
func (o *OneRowOp) Open(*Ctx) error { o.done = false; return nil }

// Next implements Operator.
func (o *OneRowOp) Next(*Ctx) (Row, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return Row{}, nil
}

// Close implements Operator.
func (o *OneRowOp) Close() {}

// refillRows is how many rows a scan visits per storage-cursor refill, and
// so how often it checks Ctx.Interrupt; HashAggOp checks at the same stride.
const refillRows = 1024

// cursorFeed is the pull loop every cursor-backed scan shares (ScanOp,
// RangeSeekOp embed it): it refills from a storage cursor refillRows
// visited rows at a time and applies the scan's bound predicate inside the
// cursor callback. A rejected row is charged its logical read like any
// other, but is never buffered and never crosses an operator boundary. The
// interrupt check runs once per refill, however few of the visited rows
// qualify.
type cursorFeed struct {
	cur rowCursor
	bp  BoundPredicate

	// sink is the cursor callback, allocated once per operator so a refill
	// allocates nothing; ctx is its argument for the refill in flight.
	sink func(row []sqltypes.Value)
	ctx  *Ctx
	// err is a predicate error met mid-refill. Next returns it only after
	// the rows that preceded it, as evaluating row by row would have.
	err error

	buf []Row
	pos int
	eof bool
}

// rowCursor is what storage.Cursor and storage.RangeCursor have in common.
type rowCursor interface {
	Next(stats *storage.Stats, max int, fn func(row []sqltypes.Value)) int
}

// open points the feed at a cursor (nil = no rows).
func (f *cursorFeed) open(cur rowCursor, pred *Predicate) {
	f.cur = cur
	f.bp.Reset(pred)
	if f.sink == nil {
		f.sink = f.take
	}
	f.err = nil
	f.buf = f.buf[:0]
	f.pos = 0
	f.eof = cur == nil
}

// take is the cursor callback: filter, then buffer.
func (f *cursorFeed) take(row []sqltypes.Value) {
	if f.bp.p != nil {
		if f.err != nil {
			return
		}
		ok, err := f.bp.Match(f.ctx, row)
		if err != nil {
			f.err = err
			return
		}
		if !ok {
			return
		}
	}
	f.buf = append(f.buf, row)
}

// Next implements Operator.
func (f *cursorFeed) Next(ctx *Ctx) (Row, error) {
	for f.pos >= len(f.buf) {
		if f.err != nil {
			return nil, f.err
		}
		if f.eof {
			return nil, nil
		}
		if ctx.Interrupted() {
			return nil, ErrInterrupted
		}
		f.buf = f.buf[:0]
		f.pos = 0
		f.ctx = ctx
		if f.cur.Next(ctx.Stats, refillRows, f.sink) == 0 {
			f.eof = true
		}
	}
	r := f.buf[f.pos]
	f.pos++
	return r, nil
}

// Close implements Operator.
func (f *cursorFeed) Close() { f.cur = nil; f.buf = nil }

// ScanOp scans a base table (or table variable / temp table). It streams
// from a storage cursor one refill at a time: the cursor freezes the slot
// slice at Open (so concurrent inserts during iteration — e.g. INSERT ...
// SELECT on the same table — do not loop forever) but rows are only walked,
// charged, and buffered as the consumer pulls, so a TOP or an early close
// over a large table never materializes the whole table.
type ScanOp struct {
	Table *storage.Table
	// Pred, when set, filters inside the scan (see cursorFeed).
	Pred *Predicate
	// Chunked lets Pred reject rows from the table's typed column chunks
	// without loading them (BoundPredicate.Reject). The planner sets it as
	// part of the access path.
	Chunked bool

	cursorFeed
	cur storage.Cursor
}

// Open implements Operator.
func (o *ScanOp) Open(ctx *Ctx) error {
	o.Table.OpenCursor(&o.cur, ctx.Snap)
	o.open(&o.cur, o.Pred)
	if o.Chunked && o.Pred != nil {
		o.cur.SetFilter(&o.bp)
	}
	return nil
}

// Close implements Operator, releasing the cursor's hold on the table's
// slot array.
func (o *ScanOp) Close() {
	o.cursorFeed.Close()
	o.cur = storage.Cursor{}
}

// BufferedRows reports the rows currently buffered (at most one refill) —
// the regression guard for the old materialize-everything-at-Open behavior.
func (o *ScanOp) BufferedRows() int { return len(o.buf) }

// IndexSeekOp returns the rows of Table whose Column equals the key scalar,
// which is evaluated at Open (it may reference variables or outer rows).
type IndexSeekOp struct {
	Table  *storage.Table
	Column string
	Key    Scalar

	rids []int // the seek's candidate buffer, kept across Opens
	rows [][]sqltypes.Value
	pos  int
}

// Open implements Operator.
func (o *IndexSeekOp) Open(ctx *Ctx) error {
	o.rows = o.rows[:0]
	o.pos = 0
	key, err := o.Key(ctx, nil)
	if err != nil {
		return err
	}
	if key.IsNull() {
		return nil // equality with NULL matches nothing
	}
	if !o.Table.Seek(ctx.Snap, ctx.Stats, o.Column, key, &o.rids, func(_ int, row []sqltypes.Value) bool {
		o.rows = append(o.rows, row)
		return true
	}) {
		return fmt.Errorf("exec: no index on %s(%s)", o.Table.Name, o.Column)
	}
	return nil
}

// Next implements Operator.
func (o *IndexSeekOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	r := o.rows[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator. It keeps the row buffer's capacity for a
// re-Open.
func (o *IndexSeekOp) Close() {
	clear(o.rows)
	o.rows = o.rows[:0]
}

// RangeSeekOp streams the rows of Table whose Column falls in [Lo, Hi]
// through an ordered index. A nil bound scalar is unbounded on that side; a
// bound that evaluates to NULL matches nothing (SQL comparisons with NULL
// are never true). Like ScanOp it streams from a storage cursor one refill
// at a time.
type RangeSeekOp struct {
	Table    *storage.Table
	Column   string
	Lo, Hi   Scalar // nil = unbounded
	LoStrict bool
	HiStrict bool
	// Pred, when set, filters the in-range rows inside the seek (see
	// cursorFeed).
	Pred *Predicate

	cursorFeed
}

// Open implements Operator, evaluating the bound scalars (they may
// reference variables or outer rows) and opening the range cursor.
func (o *RangeSeekOp) Open(ctx *Ctx) error {
	o.open(nil, nil) // no rows unless the seek below succeeds
	lo, hi := sqltypes.Null, sqltypes.Null
	if o.Lo != nil {
		v, err := o.Lo(ctx, nil)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		lo = v
	}
	if o.Hi != nil {
		v, err := o.Hi(ctx, nil)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		hi = v
	}
	cur, ok := o.Table.SeekRange(ctx.Snap, ctx.Stats, o.Column, lo, hi, o.LoStrict, o.HiStrict)
	if !ok {
		return fmt.Errorf("exec: no ordered index on %s(%s)", o.Table.Name, o.Column)
	}
	o.open(cur, o.Pred)
	return nil
}

// BufferedRows reports the rows currently buffered (at most one refill).
func (o *RangeSeekOp) BufferedRows() int { return len(o.buf) }

// LateScanOp scans a table variable or temp table resolved from the
// context at Open time. Plans over such tables are cached across procedure
// invocations even though each invocation declares fresh instances.
type LateScanOp struct {
	Name string
	// Pred, when set, filters inside the scan (see cursorFeed).
	Pred *Predicate

	scan ScanOp
}

// Open implements Operator.
func (o *LateScanOp) Open(ctx *Ctx) error {
	if ctx.Temp == nil {
		return fmt.Errorf("exec: no temp-table resolver for %s", o.Name)
	}
	tab, ok := ctx.Temp(o.Name)
	if !ok {
		return fmt.Errorf("exec: undeclared table variable %s", o.Name)
	}
	o.scan.Table, o.scan.Pred = tab, o.Pred
	return o.scan.Open(ctx)
}

// Next implements Operator.
func (o *LateScanOp) Next(ctx *Ctx) (Row, error) { return o.scan.Next(ctx) }

// Close implements Operator.
func (o *LateScanOp) Close() { o.scan.Close() }

// DeltaScanOp reads from a shared row buffer; the recursive-CTE operator
// points it at the previous iteration's delta.
type DeltaScanOp struct {
	Source *[]Row
	pos    int
}

// Open implements Operator.
func (o *DeltaScanOp) Open(*Ctx) error { o.pos = 0; return nil }

// Next implements Operator.
func (o *DeltaScanOp) Next(*Ctx) (Row, error) {
	rows := *o.Source
	if o.pos >= len(rows) {
		return nil, nil
	}
	r := rows[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *DeltaScanOp) Close() {}

// BufferScanOp emits rows from a fixed buffer (materialized CTE results).
type BufferScanOp struct {
	Rows []Row
	pos  int
}

// Open implements Operator.
func (o *BufferScanOp) Open(*Ctx) error { o.pos = 0; return nil }

// Next implements Operator.
func (o *BufferScanOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.Rows) {
		return nil, nil
	}
	r := o.Rows[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *BufferScanOp) Close() {}

// ----- Row transformers -----

// FilterOp passes through rows satisfying Pred. The planner places it over
// children that cannot filter themselves (seeks by key, joins, aggregates,
// derived tables) and for conjuncts a scan must not run, those that call
// user code; kernel-only conjuncts over a scan run inside the scan.
type FilterOp struct {
	Child Operator
	Pred  *Predicate

	bp BoundPredicate
}

// Open implements Operator.
func (o *FilterOp) Open(ctx *Ctx) error {
	o.bp.Reset(o.Pred)
	return o.Child.Open(ctx)
}

// Next implements Operator.
func (o *FilterOp) Next(ctx *Ctx) (Row, error) {
	for {
		r, err := o.Child.Next(ctx)
		if err != nil || r == nil {
			return nil, err
		}
		ok, err := o.bp.Match(ctx, r)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}

// Close implements Operator.
func (o *FilterOp) Close() { o.Child.Close() }

// ProjectOp maps each input row through a list of scalars.
type ProjectOp struct {
	Child Operator
	Exprs []Scalar
}

// Open implements Operator.
func (o *ProjectOp) Open(ctx *Ctx) error { return o.Child.Open(ctx) }

// Next implements Operator.
func (o *ProjectOp) Next(ctx *Ctx) (Row, error) {
	r, err := o.Child.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	out := make(Row, len(o.Exprs))
	for i, s := range o.Exprs {
		if out[i], err = s(ctx, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Close implements Operator.
func (o *ProjectOp) Close() { o.Child.Close() }

// ----- Joins -----

// NLJoinOp is a nested-loop join that pushes each left row onto the
// outer-row stack and re-opens the right child, which may therefore be
// correlated (an IndexSeekOp keyed by the left row, or an arbitrary
// dependent subplan). It thus doubles as the Apply operator.
type NLJoinOp struct {
	Left       Operator
	Right      Operator
	LeftWidth  int
	RightWidth int
	On         Scalar // evaluated on the combined row; nil = always true
	LeftOuter  bool

	leftRow    Row
	rightOpen  bool
	matched    bool
	checkCount int
}

// Open implements Operator.
func (o *NLJoinOp) Open(ctx *Ctx) error {
	o.leftRow = nil
	o.rightOpen = false
	o.matched = false
	return o.Left.Open(ctx)
}

// Next implements Operator.
func (o *NLJoinOp) Next(ctx *Ctx) (Row, error) {
	for {
		o.checkCount++
		if o.checkCount%1024 == 0 && ctx.Interrupted() {
			return nil, ErrInterrupted
		}
		if !o.rightOpen {
			lr, err := o.Left.Next(ctx)
			if err != nil {
				return nil, err
			}
			if lr == nil {
				return nil, nil
			}
			o.leftRow = lr
			o.matched = false
			ctx.OuterRows = append(ctx.OuterRows, lr)
			err = o.Right.Open(ctx)
			ctx.OuterRows = ctx.OuterRows[:len(ctx.OuterRows)-1]
			if err != nil {
				return nil, err
			}
			o.rightOpen = true
		}
		ctx.OuterRows = append(ctx.OuterRows, o.leftRow)
		rr, err := o.Right.Next(ctx)
		ctx.OuterRows = ctx.OuterRows[:len(ctx.OuterRows)-1]
		if err != nil {
			return nil, err
		}
		if rr == nil {
			o.Right.Close()
			o.rightOpen = false
			if o.LeftOuter && !o.matched {
				return o.combine(o.leftRow, nil), nil
			}
			continue
		}
		combined := o.combine(o.leftRow, rr)
		if o.On != nil {
			v, err := o.On(ctx, combined)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		o.matched = true
		return combined, nil
	}
}

func (o *NLJoinOp) combine(l, r Row) Row {
	out := make(Row, o.LeftWidth+o.RightWidth)
	copy(out, l)
	if r != nil {
		copy(out[o.LeftWidth:], r)
	} else {
		for i := o.LeftWidth; i < len(out); i++ {
			out[i] = sqltypes.Null
		}
	}
	return out
}

// Close implements Operator.
func (o *NLJoinOp) Close() {
	if o.rightOpen {
		o.Right.Close()
		o.rightOpen = false
	}
	o.Left.Close()
}

// HashJoinOp is an equi-join: it builds a hash table over the right child
// keyed by RightKeys, then probes with LeftKeys. Residual predicates run on
// the combined row.
type HashJoinOp struct {
	Left       Operator
	Right      Operator
	LeftWidth  int
	RightWidth int
	LeftKeys   []Scalar
	RightKeys  []Scalar
	Residual   Scalar // may be nil
	LeftOuter  bool

	table     map[uint64][]Row
	pending   []Row // matches for the current left row not yet emitted
	leftRow   Row
	buildRows int // rows buffered in the hash table (for instrumentation)
}

// BufferedRows reports the build-side hash table size.
func (o *HashJoinOp) BufferedRows() int { return o.buildRows }

// Open implements Operator.
func (o *HashJoinOp) Open(ctx *Ctx) error {
	o.table = map[uint64][]Row{}
	o.pending = nil
	o.buildRows = 0
	if err := o.Right.Open(ctx); err != nil {
		return err
	}
	defer o.Right.Close()
	keybuf := make([]sqltypes.Value, len(o.RightKeys))
	for {
		r, err := o.Right.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		null := false
		for i, k := range o.RightKeys {
			v, err := k(ctx, r)
			if err != nil {
				return err
			}
			if v.IsNull() {
				null = true
				break
			}
			keybuf[i] = v
		}
		if null {
			continue // NULL keys never join
		}
		h := sqltypes.HashRow(keybuf)
		o.table[h] = append(o.table[h], r)
		o.buildRows++
	}
	return o.Left.Open(ctx)
}

// Next implements Operator.
func (o *HashJoinOp) Next(ctx *Ctx) (Row, error) {
	for {
		if len(o.pending) > 0 {
			r := o.pending[0]
			o.pending = o.pending[1:]
			return r, nil
		}
		lr, err := o.Left.Next(ctx)
		if err != nil {
			return nil, err
		}
		if lr == nil {
			return nil, nil
		}
		o.leftRow = lr
		keys := make([]sqltypes.Value, len(o.LeftKeys))
		null := false
		for i, k := range o.LeftKeys {
			v, err := k(ctx, lr)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				null = true
				break
			}
			keys[i] = v
		}
		var matches []Row
		if !null {
			for _, cand := range o.table[sqltypes.HashRow(keys)] {
				equal := true
				for i, k := range o.RightKeys {
					v, err := k(ctx, cand)
					if err != nil {
						return nil, err
					}
					if !sqltypes.Equal(v, keys[i]) {
						equal = false
						break
					}
				}
				if !equal {
					continue
				}
				combined := o.combine(lr, cand)
				if o.Residual != nil {
					v, err := o.Residual(ctx, combined)
					if err != nil {
						return nil, err
					}
					if !v.Truthy() {
						continue
					}
				}
				matches = append(matches, combined)
			}
		}
		if len(matches) == 0 {
			if o.LeftOuter {
				return o.combine(lr, nil), nil
			}
			continue
		}
		o.pending = matches[1:]
		return matches[0], nil
	}
}

func (o *HashJoinOp) combine(l, r Row) Row {
	out := make(Row, o.LeftWidth+o.RightWidth)
	copy(out, l)
	if r != nil {
		copy(out[o.LeftWidth:], r)
	} else {
		for i := o.LeftWidth; i < len(out); i++ {
			out[i] = sqltypes.Null
		}
	}
	return out
}

// Close implements Operator.
func (o *HashJoinOp) Close() {
	o.table = nil
	o.pending = nil
	o.Left.Close()
}

// ----- Ordering, limiting, dedup -----

// SortOp materializes its input and emits it ordered by Keys. NULLs sort
// first; incomparable values keep their input order.
type SortOp struct {
	Child Operator
	Keys  []Scalar
	Desc  []bool

	rows []Row
	pos  int
}

// BufferedRows reports the number of rows materialized for sorting.
func (o *SortOp) BufferedRows() int { return len(o.rows) }

// Open implements Operator.
func (o *SortOp) Open(ctx *Ctx) error {
	o.rows = nil
	o.pos = 0
	if err := o.Child.Open(ctx); err != nil {
		return err
	}
	defer o.Child.Close()
	type keyed struct {
		row  Row
		keys []sqltypes.Value
	}
	var items []keyed
	for {
		r, err := o.Child.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		ks := make([]sqltypes.Value, len(o.Keys))
		for i, k := range o.Keys {
			v, err := k(ctx, r)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		items = append(items, keyed{r, ks})
	}
	sort.SliceStable(items, func(a, b int) bool {
		for i := range o.Keys {
			va, vb := items[a].keys[i], items[b].keys[i]
			c := compareForSort(va, vb)
			if c == 0 {
				continue
			}
			if o.Desc[i] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	o.rows = make([]Row, len(items))
	for i, it := range items {
		o.rows[i] = it.row
	}
	return nil
}

// compareForSort orders values with NULLs first, then by kind rank, then by
// value within a rank. Returning 0 for incomparable mixed-kind pairs would
// make the comparator non-transitive (1 ~ 'a', 'a' ~ 2, but 1 < 2) and the
// sort order input-dependent; ranking kinds first yields a total order.
func compareForSort(a, b sqltypes.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if ra, rb := sortRank(a), sortRank(b); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	if a.Kind() == sqltypes.KindTuple && b.Kind() == sqltypes.KindTuple {
		at, bt := a.Tuple(), b.Tuple()
		n := len(at)
		if len(bt) < n {
			n = len(bt)
		}
		for i := 0; i < n; i++ {
			if c := compareForSort(at[i], bt[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(at) < len(bt):
			return -1
		case len(at) > len(bt):
			return 1
		}
		return 0
	}
	if c, ok := sqltypes.Compare(a, b); ok {
		return c
	}
	// Same rank but still incomparable (e.g. a date vs a non-date string):
	// fall back to the rendered form so the order stays total.
	return strings.Compare(a.String(), b.String())
}

// sortRank buckets kinds for mixed-kind ORDER BY: booleans, then numerics
// (ints and floats compare cross-kind), then dates, then strings, then
// tuples. Dates and strings rank separately even though Compare coerces
// date-shaped strings: a non-date string is incomparable with a date, which
// would break transitivity if they shared a rank.
func sortRank(v sqltypes.Value) int {
	switch v.Kind() {
	case sqltypes.KindBool:
		return 1
	case sqltypes.KindInt, sqltypes.KindFloat:
		return 2
	case sqltypes.KindDate:
		return 3
	case sqltypes.KindString:
		return 4
	case sqltypes.KindTuple:
		return 5
	}
	return 6
}

// Next implements Operator.
func (o *SortOp) Next(*Ctx) (Row, error) {
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	r := o.rows[o.pos]
	o.pos++
	return r, nil
}

// Close implements Operator.
func (o *SortOp) Close() { o.rows = nil }

// TopOp emits at most N rows, N evaluated at Open. Once the limit is
// reached the child subtree is closed immediately, so scans beneath a
// satisfied TOP stop accruing logical reads; TOP 0 never opens the child.
type TopOp struct {
	Child Operator
	N     Scalar

	limit     int64
	seen      int64
	childOpen bool
}

// Open implements Operator.
func (o *TopOp) Open(ctx *Ctx) error {
	o.seen = 0
	o.childOpen = false
	v, err := o.N(ctx, nil)
	if err != nil {
		return err
	}
	n, ok := v.AsInt()
	if !ok {
		return fmt.Errorf("exec: TOP requires an integer, got %s", v.Kind())
	}
	o.limit = n
	if o.limit <= 0 {
		return nil
	}
	// Mark open before the call so a failed child Open is still closed
	// (the Operator contract makes that safe).
	o.childOpen = true
	return o.Child.Open(ctx)
}

// Next implements Operator.
func (o *TopOp) Next(ctx *Ctx) (Row, error) {
	if o.seen >= o.limit {
		o.closeChild()
		return nil, nil
	}
	r, err := o.Child.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	o.seen++
	if o.seen >= o.limit {
		o.closeChild()
	}
	return r, nil
}

func (o *TopOp) closeChild() {
	if o.childOpen {
		o.Child.Close()
		o.childOpen = false
	}
}

// Close implements Operator.
func (o *TopOp) Close() { o.closeChild() }

// DistinctOp removes duplicate rows (grouping NULLs together).
type DistinctOp struct {
	Child Operator
	seen  map[uint64][]Row
}

// Open implements Operator.
func (o *DistinctOp) Open(ctx *Ctx) error {
	o.seen = map[uint64][]Row{}
	return o.Child.Open(ctx)
}

// Next implements Operator.
func (o *DistinctOp) Next(ctx *Ctx) (Row, error) {
	for {
		r, err := o.Child.Next(ctx)
		if err != nil || r == nil {
			return nil, err
		}
		h := sqltypes.HashRow(r)
		dup := false
		for _, prev := range o.seen[h] {
			if sqltypes.RowsGroupEqual(prev, r) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		o.seen[h] = append(o.seen[h], r)
		return r, nil
	}
}

// Close implements Operator.
func (o *DistinctOp) Close() { o.seen = nil; o.Child.Close() }

// ConcatOp emits all rows of each child in turn (UNION ALL).
type ConcatOp struct {
	Children []Operator
	cur      int
	open     bool
}

// Open implements Operator.
func (o *ConcatOp) Open(ctx *Ctx) error {
	o.cur = 0
	o.open = false
	return nil
}

// Next implements Operator.
func (o *ConcatOp) Next(ctx *Ctx) (Row, error) {
	for o.cur < len(o.Children) {
		if !o.open {
			// Mark open before the call so a failed child Open is still
			// closed (the Operator contract makes that safe).
			o.open = true
			if err := o.Children[o.cur].Open(ctx); err != nil {
				return nil, err
			}
		}
		r, err := o.Children[o.cur].Next(ctx)
		if err != nil {
			return nil, err
		}
		if r != nil {
			return r, nil
		}
		o.Children[o.cur].Close()
		o.open = false
		o.cur++
	}
	return nil, nil
}

// Close implements Operator.
func (o *ConcatOp) Close() {
	if o.open && o.cur < len(o.Children) {
		o.Children[o.cur].Close()
		o.open = false
	}
}
