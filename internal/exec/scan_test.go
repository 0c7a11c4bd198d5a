package exec

import (
	"errors"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// mkAggs builds count(*)+count(v)+sum(v)+avg(v)+min(v)+max(v) instances over
// column ord.
func mkAggs(ord int) []AggInstance {
	specs := BuiltinAggs()
	col := ColScalar(ord)
	return []AggInstance{
		{Spec: specs["count"], Star: true},
		{Spec: specs["count"], Args: []Scalar{col}},
		{Spec: specs["sum"], Args: []Scalar{col}},
		{Spec: specs["avg"], Args: []Scalar{col}},
		{Spec: specs["min"], Args: []Scalar{col}},
		{Spec: specs["max"], Args: []Scalar{col}},
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

// TestHashAggBatchAllNulls pins an aggregated column that is entirely NULL,
// over more than one scan refill: count(v) skips every row and
// sum/avg/min/max return NULL.
func TestHashAggBatchAllNulls(t *testing.T) {
	tab := aggTable(t, 2000, true)
	op := &HashAggOp{Child: &ScanOp{Table: tab}, Aggs: mkAggs(1)}
	out, err := Drain(&Ctx{Stats: &storage.Stats{}}, op)
	if err != nil || len(out) != 1 {
		t.Fatalf("%v %d", err, len(out))
	}
	r := out[0]
	if r[0].Int() != 2000 { // count(*)
		t.Fatalf("count(*) = %v", r[0])
	}
	if r[1].Int() != 0 { // count(v) skips NULLs
		t.Fatalf("count(v) = %v", r[1])
	}
	for i := 2; i < 6; i++ { // sum/avg/min/max over all-NULL
		if !r[i].IsNull() {
			t.Fatalf("agg %d = %v, want NULL", i, r[i])
		}
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
	if reads := stats.Snapshot().LogicalReads; reads > refillRows {
		t.Fatalf("TOP 1 over 10k rows charged %d logical reads, want <= %d", reads, refillRows)
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
	if n := scan.BufferedRows(); n > refillRows {
		t.Fatalf("scan buffered %d rows after one Next, want <= %d", n, refillRows)
	}
}

// interruptingRowOp yields rows until it has served limit of them and
// closes the interrupt channel as it hands out row number refillRows.
type interruptingRowOp struct {
	interrupt chan struct{}
	limit     int
	served    int
}

func (o *interruptingRowOp) Open(*Ctx) error { o.served = 0; return nil }
func (o *interruptingRowOp) Next(*Ctx) (Row, error) {
	if o.served == o.limit {
		return nil, nil
	}
	o.served++
	if o.served == refillRows {
		close(o.interrupt)
	}
	return Row{sqltypes.NewInt(int64(o.served))}, nil
}
func (o *interruptingRowOp) Close() {}

// TestBatchFoldInterrupt pins HashAggOp's cancellation stride: a fold over a
// source that is interrupted at row refillRows stops right there, with
// ErrInterrupted, rather than draining the rest of its input.
func TestBatchFoldInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	src := &interruptingRowOp{interrupt: interrupt, limit: 4 * refillRows}
	op := &HashAggOp{
		Child: src,
		Aggs:  []AggInstance{{Spec: BuiltinAggs()["count"], Star: true}},
	}
	_, err := Drain(&Ctx{Interrupt: interrupt, Stats: &storage.Stats{}}, op)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if src.served != refillRows {
		t.Errorf("fold pulled %d rows, want %d (one stride)", src.served, refillRows)
	}
}

// TestFilteringScanRejectsInPlace pins what moving the filter into the scan
// is for: a row the predicate rejects is charged its logical read but is
// never buffered — and a scan that rejects everything still checks for
// interruption once per refill.
func TestFilteringScanRejectsInPlace(t *testing.T) {
	tab := aggTable(t, 5_000, false)
	none := NewPredicate([]Conjunct{{Shape: ShapeCompare, Ord: 0, Op: sqltypes.OpLt, Args: []Scalar{ConstScalar(sqltypes.NewInt(-1))}}})
	stats := &storage.Stats{}
	ctx := &Ctx{Stats: stats}
	scan := &ScanOp{Table: tab, Pred: none}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if r, err := scan.Next(ctx); err != nil || r != nil {
		t.Fatalf("row %v, err %v from a scan whose filter rejects every row", r, err)
	}
	if reads := stats.LogicalReads.Load(); reads != 5_000 {
		t.Errorf("%d logical reads, want 5000 (a rejected row is still read)", reads)
	}
	if n := scan.BufferedRows(); n != 0 {
		t.Errorf("%d rejected rows buffered", n)
	}
	scan.Close()

	// Interrupted after the first refill: the scan stops there, although no
	// row ever reached the consumer.
	interrupt := make(chan struct{})
	stats = &storage.Stats{}
	ctx = &Ctx{Stats: stats, Interrupt: interrupt}
	calls := 0
	closing := NewPredicate([]Conjunct{{Generic: func(*Ctx, Row) (sqltypes.Value, error) {
		if calls++; calls == refillRows {
			close(interrupt)
		}
		return sqltypes.NewBool(false), nil
	}}})
	scan = &ScanOp{Table: tab, Pred: closing}
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if _, err := scan.Next(ctx); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if reads := stats.LogicalReads.Load(); reads != refillRows {
		t.Errorf("%d rows read before the interrupt was seen, want one refill (%d)", reads, refillRows)
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
