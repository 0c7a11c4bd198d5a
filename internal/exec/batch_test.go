package exec

import (
	"errors"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

func TestColumnNullBitmap(t *testing.T) {
	var c Column
	// Cross the 64-bit word boundary so multi-word bitmaps are exercised.
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			c.Append(sqltypes.Null)
		} else {
			c.Append(sqltypes.NewInt(int64(i)))
		}
	}
	if !c.HasNulls() {
		t.Fatal("HasNulls = false")
	}
	want := 0
	for i := 0; i < 200; i++ {
		isNull := i%3 == 0
		if isNull {
			want++
		}
		if c.Null(i) != isNull {
			t.Fatalf("Null(%d) = %v, want %v", i, c.Null(i), isNull)
		}
	}
	if got := c.NullCount(); got != want {
		t.Fatalf("NullCount = %d, want %d", got, want)
	}

	var noNulls Column
	noNulls.Append(sqltypes.NewInt(1))
	if noNulls.HasNulls() || noNulls.Null(0) || noNulls.NullCount() != 0 {
		t.Fatal("phantom nulls in all-non-null column")
	}
}

func TestBatchResetClearsBitmap(t *testing.T) {
	b := NewBatch(1)
	b.AppendRow(Row{sqltypes.Null})
	b.Reset(1)
	b.AppendRow(Row{sqltypes.NewInt(7)})
	if b.Cols[0].HasNulls() || b.Cols[0].Null(0) {
		t.Fatal("null bitmap survived Reset")
	}
}

// mkAggs builds count(*)+count(v)+sum(v)+avg(v)+min(v)+max(v) instances over
// column ord, with ArgOrds resolved so the batch fold vectorizes.
func mkAggs(ord int) []AggInstance {
	specs := BuiltinAggs()
	col := ColScalar(ord)
	return []AggInstance{
		{Spec: specs["count"], Star: true},
		{Spec: specs["count"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["sum"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["avg"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["min"], Args: []Scalar{col}, ArgOrds: []int{ord}},
		{Spec: specs["max"], Args: []Scalar{col}, ArgOrds: []int{ord}},
	}
}

// aggTable builds a two-column table: k = i%7, v = NULL every 5th row else i.
func aggTable(t *testing.T, rows int64, allNull bool) *storage.Table {
	t.Helper()
	tab := storage.NewTable("t", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < rows; i++ {
		v := sqltypes.NewInt(i)
		if allNull || i%5 == 0 {
			v = sqltypes.Null
		}
		if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i % 7), v}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestHashAggBatchMatchesRow drives the same grouped aggregation through the
// vectorized fold and the row path and requires byte-identical output —
// including group order and NULL handling, across row counts that are exact
// batch multiples, off-by-one, and empty.
func TestHashAggBatchMatchesRow(t *testing.T) {
	for _, rows := range []int64{0, 1, DefaultBatchSize, DefaultBatchSize + 1, 2 * DefaultBatchSize, 3000} {
		tab := aggTable(t, rows, false)
		run := func(noBatch bool) []Row {
			op := &HashAggOp{
				Child:     &ScanOp{Table: tab},
				GroupKeys: []Scalar{ColScalar(0)},
				GroupOrds: []int{0},
				Aggs:      mkAggs(1),
				NoBatch:   noBatch,
			}
			out, err := Drain(&Ctx{Stats: &storage.Stats{}}, op)
			if err != nil {
				t.Fatalf("rows=%d noBatch=%v: %v", rows, noBatch, err)
			}
			return out
		}
		batch, row := run(false), run(true)
		if len(batch) != len(row) {
			t.Fatalf("rows=%d: %d batch groups vs %d row groups", rows, len(batch), len(row))
		}
		for i := range batch {
			if !sqltypes.RowsGroupEqual(batch[i], row[i]) {
				t.Fatalf("rows=%d group %d: batch %v != row %v", rows, i, batch[i], row[i])
			}
		}
	}
}

// TestHashAggBatchAllNulls pins bitmap correctness where it matters most: an
// aggregated column that is entirely NULL (count skips all, sum/min/max/avg
// return NULL) on both paths.
func TestHashAggBatchAllNulls(t *testing.T) {
	tab := aggTable(t, 2000, true)
	for _, noBatch := range []bool{false, true} {
		op := &HashAggOp{Child: &ScanOp{Table: tab}, Aggs: mkAggs(1), NoBatch: noBatch}
		out, err := Drain(&Ctx{Stats: &storage.Stats{}}, op)
		if err != nil || len(out) != 1 {
			t.Fatalf("noBatch=%v: %v %d", noBatch, err, len(out))
		}
		r := out[0]
		if r[0].Int() != 2000 { // count(*)
			t.Fatalf("noBatch=%v: count(*) = %v", noBatch, r[0])
		}
		if r[1].Int() != 0 { // count(v) skips NULLs
			t.Fatalf("noBatch=%v: count(v) = %v", noBatch, r[1])
		}
		for i := 2; i < 6; i++ { // sum/avg/min/max over all-NULL
			if !r[i].IsNull() {
				t.Fatalf("noBatch=%v: agg %d = %v, want NULL", noBatch, i, r[i])
			}
		}
	}
}

func seqRows(lo, hi int64) []Row {
	var out []Row
	for i := lo; i < hi; i++ {
		out = append(out, intRow(i))
	}
	return out
}

// TestAdaptBatch checks the row→batch adapter on empty input and on a row
// count that is an exact multiple of the batch size (the boundary where an
// off-by-one would emit a phantom empty batch or drop the last one).
func TestAdaptBatch(t *testing.T) {
	ad := &AdaptBatch{Child: bufferOf()}
	if err := ad.Open(&Ctx{}); err != nil {
		t.Fatal(err)
	}
	if b, err := ad.NextBatch(&Ctx{}); err != nil || b != nil {
		t.Fatalf("empty input: batch=%v err=%v", b, err)
	}
	ad.Close()

	ad = &AdaptBatch{Child: &BufferScanOp{Rows: seqRows(0, 2*DefaultBatchSize)}}
	if err := ad.Open(&Ctx{}); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	total := int64(0)
	for {
		b, err := ad.NextBatch(&Ctx{})
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, b.Len())
		for i := 0; i < b.Len(); i++ {
			if b.Cols[0].Vals[i].Int() != total {
				t.Fatalf("row %d out of order: %v", total, b.Cols[0].Vals[i])
			}
			total++
		}
	}
	ad.Close()
	if total != 2*DefaultBatchSize || len(sizes) != 2 || sizes[0] != DefaultBatchSize || sizes[1] != DefaultBatchSize {
		t.Fatalf("total=%d sizes=%v", total, sizes)
	}
}

// TestScanStreamsEarlyStop is the satellite regression test: pulling one row
// (TOP 1) off a large table must not materialize — or charge reads for —
// more than one cursor refill.
func TestScanStreamsEarlyStop(t *testing.T) {
	tab := aggTable(t, 10_000, false)
	stats := &storage.Stats{}
	ctx := &Ctx{Stats: stats}
	scan := &ScanOp{Table: tab}
	top := &TopOp{Child: scan, N: ConstScalar(sqltypes.NewInt(1))}
	rows, err := Drain(ctx, top)
	if err != nil || len(rows) != 1 {
		t.Fatalf("top 1: %v %d", err, len(rows))
	}
	if reads := stats.Snapshot().LogicalReads; reads > DefaultBatchSize {
		t.Fatalf("TOP 1 over 10k rows charged %d logical reads, want <= %d", reads, DefaultBatchSize)
	}
}

func TestScanBufferedRowsBounded(t *testing.T) {
	tab := aggTable(t, 10_000, false)
	scan := &ScanOp{Table: tab}
	ctx := &Ctx{Stats: &storage.Stats{}}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if _, err := scan.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if n := scan.BufferedRows(); n > DefaultBatchSize {
		t.Fatalf("scan buffered %d rows after one Next, want <= %d", n, DefaultBatchSize)
	}
}

// interruptingBatchOp yields batches forever and closes the interrupt
// channel right before handing out batch #1 — so only a consumer that
// checks Interrupted at every batch boundary stops.
type interruptingBatchOp struct {
	interrupt chan struct{}
	batch     *Batch
	served    int
}

func (o *interruptingBatchOp) Open(*Ctx) error { o.served = 0; return nil }
func (o *interruptingBatchOp) Next(*Ctx) (Row, error) {
	return nil, errors.New("row path must not be used")
}
func (o *interruptingBatchOp) NextBatch(*Ctx) (*Batch, error) {
	if o.batch == nil {
		o.batch = NewBatch(1)
		for i := 0; i < DefaultBatchSize; i++ {
			o.batch.AppendRow(Row{sqltypes.NewInt(int64(i))})
		}
	}
	o.served++
	if o.served == 1 {
		close(o.interrupt)
	}
	return o.batch, nil
}
func (o *interruptingBatchOp) BatchCapable() bool { return true }
func (o *interruptingBatchOp) Close()             {}

// TestBatchFoldInterrupt pins the satellite-3 contract: the vectorized fold
// bypasses Next's per-row interrupt stride, so it must check cancellation at
// every batch boundary itself.
func TestBatchFoldInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	op := &HashAggOp{
		Child: &interruptingBatchOp{interrupt: interrupt},
		Aggs:  []AggInstance{{Spec: BuiltinAggs()["count"], Star: true}},
	}
	_, err := Drain(&Ctx{Interrupt: interrupt, Stats: &storage.Stats{}}, op)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

// TestBatchOfMixedTree checks batchOf: a native producer passes through
// unwrapped; a row-only operator is adapted, and both deliver the same rows.
func TestBatchOfMixedTree(t *testing.T) {
	tab := aggTable(t, 100, false)
	scan := &ScanOp{Table: tab}
	if bo := batchOf(scan); bo != Operator(scan) {
		t.Fatal("native producer should pass through batchOf unwrapped")
	}
	rows := seqRows(0, 100)
	adapted := batchOf(&BufferScanOp{Rows: rows})
	if _, isAdapter := adapted.(*AdaptBatch); !isAdapter {
		t.Fatal("row-only operator should be wrapped in AdaptBatch")
	}
	ctx := &Ctx{}
	if err := adapted.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer adapted.Close()
	var got int64
	for {
		b, err := adapted.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, r := range b.Rows() {
			if r[0].Int() != got {
				t.Fatalf("row %d: %v", got, r)
			}
			got++
		}
	}
	if got != 100 {
		t.Fatalf("drained %d rows, want 100", got)
	}
}

// TestFilteringScanRejectsInPlace pins what moving the filter into the scan
// is for: a row the predicate rejects is charged its logical read but is
// never buffered and never put into a batch, on either path — and a scan
// that rejects everything still checks for interruption once per refill.
func TestFilteringScanRejectsInPlace(t *testing.T) {
	tab := aggTable(t, 5_000, false)
	none := NewPredicate([]Conjunct{{Shape: ShapeCompare, Ord: 0, Op: sqltypes.OpLt, Args: []Scalar{ConstScalar(sqltypes.NewInt(-1))}}})
	for _, batch := range []bool{false, true} {
		stats := &storage.Stats{}
		ctx := &Ctx{Stats: stats}
		scan := &ScanOp{Table: tab, Pred: none}
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var err error
		rows := 0
		if batch {
			var b *Batch
			if b, err = scan.NextBatch(ctx); b != nil {
				rows = b.Len()
			}
		} else {
			var r Row
			if r, err = scan.Next(ctx); r != nil {
				rows = 1
			}
		}
		if err != nil || rows != 0 {
			t.Fatalf("batch=%v: %d rows, err %v from a scan whose filter rejects every row", batch, rows, err)
		}
		if reads := stats.LogicalReads.Load(); reads != 5_000 {
			t.Errorf("batch=%v: %d logical reads, want 5000 (a rejected row is still read)", batch, reads)
		}
		if n := scan.BufferedRows(); n != 0 {
			t.Errorf("batch=%v: %d rejected rows buffered", batch, n)
		}
		scan.Close()
	}

	// Interrupted after the first refill: the scan stops there, although no
	// row ever reached the consumer.
	interrupt := make(chan struct{})
	stats := &storage.Stats{}
	ctx := &Ctx{Stats: stats, Interrupt: interrupt}
	calls := 0
	closing := NewPredicate([]Conjunct{{Generic: func(*Ctx, Row) (sqltypes.Value, error) {
		if calls++; calls == DefaultBatchSize {
			close(interrupt)
		}
		return sqltypes.NewBool(false), nil
	}}})
	scan := &ScanOp{Table: tab, Pred: closing}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if _, err := scan.Next(ctx); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if reads := stats.LogicalReads.Load(); reads != DefaultBatchSize {
		t.Errorf("%d rows read before the interrupt was seen, want one refill (%d)", reads, DefaultBatchSize)
	}
}

// TestUnknownShapeIsAnError pins that a conjunct shape without a kernel is
// reported and not evaluated as IS NULL.
func TestUnknownShapeIsAnError(t *testing.T) {
	var b BoundPredicate
	b.Reset(NewPredicate([]Conjunct{{Shape: ShapeIsNull + 1, Ord: 0}}))
	if _, err := b.Match(&Ctx{}, Row{sqltypes.Null}); err == nil {
		t.Fatal("a conjunct of an unknown shape matched without an error")
	}
}
