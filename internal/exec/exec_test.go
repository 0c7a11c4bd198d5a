package exec

import (
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

func intRow(vals ...int64) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

func bufferOf(rows ...Row) *BufferScanOp { return &BufferScanOp{Rows: rows} }

func drain(t *testing.T, op Operator) []Row {
	t.Helper()
	rows, err := Drain(&Ctx{}, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFilterProject(t *testing.T) {
	src := bufferOf(intRow(1, 10), intRow(2, 20), intRow(3, 30))
	pred := func(_ *Ctx, r Row) (sqltypes.Value, error) {
		return sqltypes.Apply(sqltypes.OpGt, r[0], sqltypes.NewInt(1))
	}
	proj := &ProjectOp{
		Child: &FilterOp{Child: src, Pred: NewPredicate([]Conjunct{{Generic: pred}})},
		Exprs: []Scalar{ColScalar(1)},
	}
	rows := drain(t, proj)
	if len(rows) != 2 || rows[0][0].Int() != 20 || rows[1][0].Int() != 30 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestScanAndIndexSeek(t *testing.T) {
	tab := storage.NewTable("t", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < 20; i++ {
		_ = tab.Insert(nil, intRow(i%5, i))
	}
	_ = tab.CreateIndex("k")
	var stats storage.Stats
	ctx := &Ctx{Stats: &stats}
	rows, err := Drain(ctx, &ScanOp{Table: tab})
	if err != nil || len(rows) != 20 {
		t.Fatalf("scan: %v %d", err, len(rows))
	}
	seek := &IndexSeekOp{Table: tab, Column: "k", Key: ConstScalar(sqltypes.NewInt(2))}
	rows, err = Drain(ctx, seek)
	if err != nil || len(rows) != 4 {
		t.Fatalf("seek: %v %d", err, len(rows))
	}
	badSeek := &IndexSeekOp{Table: tab, Column: "v", Key: ConstScalar(sqltypes.NewInt(2))}
	if _, err := Drain(ctx, badSeek); err == nil {
		t.Fatal("seek without index should error")
	}
	nullSeek := &IndexSeekOp{Table: tab, Column: "k", Key: ConstScalar(sqltypes.Null)}
	rows, err = Drain(ctx, nullSeek)
	if err != nil || len(rows) != 0 {
		t.Fatalf("NULL seek should be empty: %v %d", err, len(rows))
	}
}

func TestNLJoinInnerAndOuter(t *testing.T) {
	left := bufferOf(intRow(1), intRow(2), intRow(3))
	right := bufferOf(intRow(1, 100), intRow(1, 101), intRow(3, 300))
	on := func(_ *Ctx, r Row) (sqltypes.Value, error) {
		return sqltypes.Apply(sqltypes.OpEq, r[0], r[1])
	}
	join := &NLJoinOp{Left: left, Right: right, LeftWidth: 1, RightWidth: 2, On: on}
	rows := drain(t, join)
	if len(rows) != 3 {
		t.Fatalf("inner rows = %v", rows)
	}
	left2 := bufferOf(intRow(1), intRow(2), intRow(3))
	right2 := bufferOf(intRow(1, 100), intRow(1, 101), intRow(3, 300))
	outer := &NLJoinOp{Left: left2, Right: right2, LeftWidth: 1, RightWidth: 2, On: on, LeftOuter: true}
	rows = drain(t, outer)
	if len(rows) != 4 {
		t.Fatalf("outer rows = %v", rows)
	}
	// Row for left=2 must be NULL-padded.
	var found bool
	for _, r := range rows {
		if r[0].Int() == 2 {
			found = true
			if !r[1].IsNull() || !r[2].IsNull() {
				t.Fatalf("outer miss not padded: %v", r)
			}
		}
	}
	if !found {
		t.Fatal("missing outer row")
	}
}

func TestNLJoinCorrelatedRight(t *testing.T) {
	// The right side reads the current left row through the outer stack —
	// this is the Apply pattern used for index nested-loop joins.
	tab := storage.NewTable("t", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < 10; i++ {
		_ = tab.Insert(nil, intRow(i, i*10))
	}
	_ = tab.CreateIndex("k")
	left := bufferOf(intRow(3), intRow(7))
	right := &IndexSeekOp{Table: tab, Column: "k", Key: OuterColScalar(1, 0)}
	join := &NLJoinOp{Left: left, Right: right, LeftWidth: 1, RightWidth: 2}
	ctx := &Ctx{Stats: &storage.Stats{}}
	rows, err := Drain(ctx, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][2].Int() != 30 || rows[1][2].Int() != 70 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestHashJoin(t *testing.T) {
	left := bufferOf(intRow(1, 0), intRow(2, 0), intRow(4, 0))
	right := bufferOf(intRow(10, 1), intRow(11, 1), intRow(12, 2), intRow(13, 3))
	join := &HashJoinOp{
		Left: left, Right: right,
		LeftWidth: 2, RightWidth: 2,
		LeftKeys:  []Scalar{ColScalar(0)},
		RightKeys: []Scalar{ColScalar(1)},
	}
	rows := drain(t, join)
	if len(rows) != 3 {
		t.Fatalf("inner join rows = %v", rows)
	}
	left = bufferOf(intRow(1, 0), intRow(2, 0), intRow(4, 0))
	right = bufferOf(intRow(10, 1), intRow(11, 1), intRow(12, 2), intRow(13, 3))
	outer := &HashJoinOp{
		Left: left, Right: right,
		LeftWidth: 2, RightWidth: 2,
		LeftKeys:  []Scalar{ColScalar(0)},
		RightKeys: []Scalar{ColScalar(1)},
		LeftOuter: true,
	}
	rows = drain(t, outer)
	if len(rows) != 4 {
		t.Fatalf("left join rows = %v", rows)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := bufferOf(Row{sqltypes.Null}, intRow(1))
	right := bufferOf(Row{sqltypes.Null}, intRow(1))
	join := &HashJoinOp{
		Left: left, Right: right, LeftWidth: 1, RightWidth: 1,
		LeftKeys: []Scalar{ColScalar(0)}, RightKeys: []Scalar{ColScalar(0)},
	}
	rows := drain(t, join)
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("NULL join rows = %v", rows)
	}
}

func TestSortTopDistinct(t *testing.T) {
	src := bufferOf(intRow(3), intRow(1), intRow(2), intRow(1))
	sorted := &SortOp{Child: src, Keys: []Scalar{ColScalar(0)}, Desc: []bool{false}}
	rows := drain(t, sorted)
	want := []int64{1, 1, 2, 3}
	for i, w := range want {
		if rows[i][0].Int() != w {
			t.Fatalf("sorted = %v", rows)
		}
	}
	src2 := bufferOf(intRow(3), intRow(1), intRow(2), intRow(1))
	desc := &SortOp{Child: src2, Keys: []Scalar{ColScalar(0)}, Desc: []bool{true}}
	rows = drain(t, desc)
	if rows[0][0].Int() != 3 {
		t.Fatalf("desc sort = %v", rows)
	}
	top := &TopOp{Child: bufferOf(intRow(1), intRow(2), intRow(3)), N: ConstScalar(sqltypes.NewInt(2))}
	if rows = drain(t, top); len(rows) != 2 {
		t.Fatalf("top = %v", rows)
	}
	dist := &DistinctOp{Child: bufferOf(intRow(1), intRow(2), intRow(1), Row{sqltypes.Null}, Row{sqltypes.Null})}
	if rows = drain(t, dist); len(rows) != 3 {
		t.Fatalf("distinct = %v", rows)
	}
}

func TestSortNullsFirst(t *testing.T) {
	src := bufferOf(intRow(1), Row{sqltypes.Null})
	sorted := &SortOp{Child: src, Keys: []Scalar{ColScalar(0)}, Desc: []bool{false}}
	rows := drain(t, sorted)
	if !rows[0][0].IsNull() {
		t.Fatalf("NULLs should sort first: %v", rows)
	}
}

func TestConcat(t *testing.T) {
	op := &ConcatOp{Children: []Operator{bufferOf(intRow(1)), bufferOf(), bufferOf(intRow(2), intRow(3))}}
	rows := drain(t, op)
	if len(rows) != 3 || rows[2][0].Int() != 3 {
		t.Fatalf("concat = %v", rows)
	}
}

func builtinAgg(t *testing.T, name string) *AggSpec {
	t.Helper()
	spec := BuiltinAggs()[name]
	if spec == nil {
		t.Fatalf("no builtin %q", name)
	}
	return spec
}

func TestBuiltinAggregates(t *testing.T) {
	input := bufferOf(intRow(1, 5), intRow(1, 7), intRow(2, 9), Row{sqltypes.NewInt(2), sqltypes.Null})
	op := &HashAggOp{
		Child:     input,
		GroupKeys: []Scalar{ColScalar(0)},
		Aggs: []AggInstance{
			{Spec: builtinAgg(t, "count"), Star: true},
			{Spec: builtinAgg(t, "count"), Args: []Scalar{ColScalar(1)}},
			{Spec: builtinAgg(t, "sum"), Args: []Scalar{ColScalar(1)}},
			{Spec: builtinAgg(t, "avg"), Args: []Scalar{ColScalar(1)}},
			{Spec: builtinAgg(t, "min"), Args: []Scalar{ColScalar(1)}},
			{Spec: builtinAgg(t, "max"), Args: []Scalar{ColScalar(1)}},
		},
	}
	rows := drain(t, op)
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	g1 := rows[0]
	if g1[1].Int() != 2 || g1[2].Int() != 2 || g1[3].Int() != 12 || g1[4].Float() != 6 || g1[5].Int() != 5 || g1[6].Int() != 7 {
		t.Fatalf("group1 = %v", g1)
	}
	g2 := rows[1]
	if g2[1].Int() != 2 || g2[2].Int() != 1 || g2[3].Int() != 9 {
		t.Fatalf("group2 = %v (COUNT(x) must skip NULL)", g2)
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	op := &HashAggOp{
		Child: bufferOf(),
		Aggs: []AggInstance{
			{Spec: builtinAgg(t, "count"), Star: true},
			{Spec: builtinAgg(t, "sum"), Args: []Scalar{ColScalar(0)}},
		},
	}
	rows := drain(t, op)
	if len(rows) != 1 {
		t.Fatal("scalar aggregate must emit one row for empty input")
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v; want COUNT=0, SUM=NULL", rows[0])
	}
	// GROUP BY over empty input emits no rows.
	op2 := &HashAggOp{
		Child:     bufferOf(),
		GroupKeys: []Scalar{ColScalar(0)},
		Aggs:      []AggInstance{{Spec: builtinAgg(t, "count"), Star: true}},
	}
	if rows := drain(t, op2); len(rows) != 0 {
		t.Fatalf("grouped empty agg = %v", rows)
	}
}

func TestStreamAgg(t *testing.T) {
	// Input sorted by key; StreamAgg emits groups as keys change.
	input := bufferOf(intRow(1, 5), intRow(1, 7), intRow(2, 9))
	op := &StreamAggOp{
		Child:     input,
		GroupKeys: []Scalar{ColScalar(0)},
		Aggs:      []AggInstance{{Spec: builtinAgg(t, "sum"), Args: []Scalar{ColScalar(1)}}},
	}
	rows := drain(t, op)
	if len(rows) != 2 || rows[0][1].Int() != 12 || rows[1][1].Int() != 9 {
		t.Fatalf("stream agg = %v", rows)
	}
	// Scalar (no keys) over empty input: one row.
	op2 := &StreamAggOp{
		Child: bufferOf(),
		Aggs:  []AggInstance{{Spec: builtinAgg(t, "count"), Star: true}},
	}
	rows = drain(t, op2)
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Fatalf("stream scalar agg empty = %v", rows)
	}
}

func TestStreamAggObservesOrder(t *testing.T) {
	// An order-sensitive aggregate: concatenates its inputs.
	spec := &AggSpec{
		Name:           "cat",
		OrderSensitive: true,
		New: func() Aggregator {
			var s string
			return &FuncAggregator{
				InitFn: func() { s = "" },
				StepFn: func(_ *Ctx, args []sqltypes.Value) error { s += args[0].Display(); return nil },
				FinalFn: func(*Ctx) (sqltypes.Value, error) {
					return sqltypes.NewString(s), nil
				},
			}
		},
	}
	input := bufferOf(intRow(3), intRow(1), intRow(2))
	op := &StreamAggOp{Child: input, Aggs: []AggInstance{{Spec: spec, Args: []Scalar{ColScalar(0)}}}}
	rows := drain(t, op)
	if rows[0][0].Str() != "312" {
		t.Fatalf("order-sensitive agg saw %q, want 312", rows[0][0].Str())
	}
	// Below a sort, it observes sorted order (Eq. 6's enforcement).
	sorted := &SortOp{Child: bufferOf(intRow(3), intRow(1), intRow(2)), Keys: []Scalar{ColScalar(0)}, Desc: []bool{false}}
	op2 := &StreamAggOp{Child: sorted, Aggs: []AggInstance{{Spec: spec, Args: []Scalar{ColScalar(0)}}}}
	rows = drain(t, op2)
	if rows[0][0].Str() != "123" {
		t.Fatalf("sorted agg saw %q, want 123", rows[0][0].Str())
	}
}

func TestRecursiveCTE(t *testing.T) {
	// WITH cte(i) AS (SELECT 0 UNION ALL SELECT i+1 FROM cte WHERE i < 4)
	var delta []Row
	seed := bufferOf(intRow(0))
	inc := func(_ *Ctx, r Row) (sqltypes.Value, error) {
		return sqltypes.Apply(sqltypes.OpAdd, r[0], sqltypes.NewInt(1))
	}
	cond := func(_ *Ctx, r Row) (sqltypes.Value, error) {
		return sqltypes.Apply(sqltypes.OpLt, r[0], sqltypes.NewInt(4))
	}
	recursive := &ProjectOp{
		Child: &FilterOp{Child: &DeltaScanOp{Source: &delta}, Pred: NewPredicate([]Conjunct{{Generic: cond}})},
		Exprs: []Scalar{inc},
	}
	op := &RecursiveCTEOp{Seed: seed, Recursive: recursive, Delta: &delta}
	rows := drain(t, op)
	if len(rows) != 5 {
		t.Fatalf("cte rows = %v", rows)
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("cte rows = %v", rows)
		}
	}
}

func TestRecursiveCTEIterationCap(t *testing.T) {
	var delta []Row
	// Recursive branch never terminates: always emits one row.
	recursive := &ProjectOp{Child: &DeltaScanOp{Source: &delta}, Exprs: []Scalar{ColScalar(0)}}
	op := &RecursiveCTEOp{Seed: bufferOf(intRow(1)), Recursive: recursive, Delta: &delta, MaxIterations: 10}
	if _, err := Drain(&Ctx{}, op); err == nil {
		t.Fatal("runaway recursion must be capped")
	}
}

func TestMergeMismatch(t *testing.T) {
	c := &countAgg{}
	s := &sumAgg{}
	if err := c.Merge(s); err == nil {
		t.Fatal("mismatched merge must error")
	}
	f := &FuncAggregator{StepFn: func(*Ctx, []sqltypes.Value) error { return nil },
		FinalFn: func(*Ctx) (sqltypes.Value, error) { return sqltypes.Null, nil }}
	if err := f.Merge(c); err == nil {
		t.Fatal("FuncAggregator without MergeFn must reject Merge")
	}
}

func TestInterrupt(t *testing.T) {
	tab := storage.NewTable("t", storage.NewSchema(storage.Col("k", sqltypes.Int)))
	for i := int64(0); i < 5000; i++ {
		_ = tab.Insert(nil, intRow(i))
	}
	ch := make(chan struct{})
	close(ch)
	ctx := &Ctx{Interrupt: ch, Stats: &storage.Stats{}}
	_, err := Drain(ctx, &ScanOp{Table: tab})
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

func TestValuesAndOneRow(t *testing.T) {
	vals := &ValuesOp{Rows: [][]Scalar{
		{ConstScalar(sqltypes.NewInt(1)), ConstScalar(sqltypes.NewString("a"))},
		{ConstScalar(sqltypes.NewInt(2)), ConstScalar(sqltypes.NewString("b"))},
	}}
	rows := drain(t, vals)
	if len(rows) != 2 || rows[1][1].Str() != "b" {
		t.Fatalf("values = %v", rows)
	}
	one := drain(t, &OneRowOp{})
	if len(one) != 1 || len(one[0]) != 0 {
		t.Fatalf("one-row = %v", one)
	}
}

func TestIsBuiltinAgg(t *testing.T) {
	if !IsBuiltinAgg("COUNT") || !IsBuiltinAgg("min") || IsBuiltinAgg("mycustom") {
		t.Fatal("IsBuiltinAgg broken")
	}
}
