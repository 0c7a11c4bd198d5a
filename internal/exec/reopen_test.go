package exec

import (
	"errors"
	"fmt"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// The re-open contract: a tree opened, drained and closed once answers a
// second Open, with other parameters and another outer row, exactly as a
// freshly built tree does — also after a pass that failed in Open or Next.
// Correlated subqueries rely on it: each execution builds a subquery's tree
// once and re-opens it per outer row.

var errBoom = errors.New("boom")

// reopenCtx binds Params[0] (the key p), Params[1] (fail: p errors) and one
// outer row [o].
func reopenCtx(tab *storage.Table, p, o int64, fail bool) *Ctx {
	return &Ctx{
		Params:    []sqltypes.Value{sqltypes.NewInt(p), sqltypes.NewBool(fail)},
		OuterRows: []Row{intRow(o)},
		Temp: func(name string) (*storage.Table, bool) {
			return tab, name == "@t"
		},
	}
}

// p reads Params[0]. When Params[1] is set it fails: at once when evaluated
// without a row (at Open), otherwise at the first row whose column 0 is at
// least 2, so a Next-time failure comes after some rows were produced.
func p(ctx *Ctx, row Row) (sqltypes.Value, error) {
	if ctx.Params[1].Truthy() && (len(row) == 0 || row[0].Int() >= 2) {
		return sqltypes.Null, errBoom
	}
	return ctx.Params[0], nil
}

// outer reads column 0 of the innermost outer row.
var outer = OuterColScalar(1, 0)

func plus(a, b Scalar) Scalar {
	return func(ctx *Ctx, row Row) (sqltypes.Value, error) {
		x, err := a(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		y, err := b(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.Apply(sqltypes.OpAdd, x, y)
	}
}

func cmp(op sqltypes.BinaryOp, a, b Scalar) *Predicate {
	return NewPredicate([]Conjunct{{Generic: func(ctx *Ctx, row Row) (sqltypes.Value, error) {
		x, err := a(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		y, err := b(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.Apply(op, x, y)
	}}})
}

func constInt(v int64) Scalar { return ConstScalar(sqltypes.NewInt(v)) }

// reopenTable holds (i%5, i) for i in 0..19, indexed on k.
func reopenTable(t *testing.T) *storage.Table {
	t.Helper()
	tab := storage.NewTable("t", storage.NewSchema(
		storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	for i := int64(0); i < 20; i++ {
		if err := tab.Insert(nil, intRow(i%5, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	return tab
}

// reopenCases builds, per operator, a tree whose answer depends on the key
// parameter or the outer row.
func reopenCases(tab *storage.Table) []struct {
	name  string
	build func() Operator
} {
	specs := BuiltinAggs()
	k, v := ColScalar(0), ColScalar(1)
	seek := func(key Scalar) Operator { return &IndexSeekOp{Table: tab, Column: "k", Key: key} }
	scanWhere := func(pred *Predicate) Operator { return &ScanOp{Table: tab, Pred: pred} }
	allAggs := func() []AggInstance {
		return []AggInstance{
			{Spec: specs["count"], Star: true},
			{Spec: specs["sum"], Args: []Scalar{v}},
			{Spec: specs["avg"], Args: []Scalar{v}},
			{Spec: specs["min"], Args: []Scalar{v}},
			{Spec: specs["max"], Args: []Scalar{plus(v, outer)}},
		}
	}
	return []struct {
		name  string
		build func() Operator
	}{
		{"values", func() Operator {
			return &ValuesOp{Rows: [][]Scalar{{p}, {plus(p, constInt(1))}, {outer}}}
		}},
		{"one-row", func() Operator {
			return &ProjectOp{Child: &OneRowOp{}, Exprs: []Scalar{p, outer}}
		}},
		{"scan", func() Operator { return scanWhere(cmp(sqltypes.OpEq, k, p)) }},
		{"scan kernel", func() Operator {
			return scanWhere(NewPredicate([]Conjunct{{Shape: ShapeCompare, Ord: 1, Op: sqltypes.OpLt, Args: []Scalar{plus(p, outer)}}}))
		}},
		{"index seek", func() Operator { return seek(p) }},
		{"range seek", func() Operator {
			return &RangeSeekOp{Table: tab, Column: "k", Lo: p, Hi: outer, Pred: cmp(sqltypes.OpGt, v, constInt(8))}
		}},
		{"late scan", func() Operator { return &LateScanOp{Name: "@t", Pred: cmp(sqltypes.OpGe, k, p)} }},
		{"buffer scan", func() Operator {
			return &FilterOp{Child: bufferOf(intRow(1, 1), intRow(2, 2), intRow(3, 3), intRow(4, 4)), Pred: cmp(sqltypes.OpGe, k, p)}
		}},
		{"delta scan", func() Operator {
			rows := []Row{intRow(1), intRow(2), intRow(3)}
			return &ProjectOp{Child: &DeltaScanOp{Source: &rows}, Exprs: []Scalar{plus(k, p)}}
		}},
		{"filter", func() Operator { return &FilterOp{Child: seek(outer), Pred: cmp(sqltypes.OpGt, v, plus(p, p))} }},
		{"project", func() Operator { return &ProjectOp{Child: seek(outer), Exprs: []Scalar{plus(v, p)}} }},
		{"nested-loop join", func() Operator {
			return &NLJoinOp{
				Left:      &ValuesOp{Rows: [][]Scalar{{p}, {outer}, {constInt(9)}}},
				Right:     seek(outer),
				LeftWidth: 1, RightWidth: 2,
				LeftOuter: true,
			}
		}},
		{"nested-loop join on", func() Operator {
			return &NLJoinOp{
				Left: seek(p), Right: seek(outer), LeftWidth: 2, RightWidth: 2,
				On: func(_ *Ctx, row Row) (sqltypes.Value, error) {
					return sqltypes.Apply(sqltypes.OpLt, row[1], row[3])
				},
			}
		}},
		{"hash join", func() Operator {
			return &HashJoinOp{
				Left:      &FilterOp{Child: scanWhere(nil), Pred: cmp(sqltypes.OpLe, k, p)},
				Right:     &ValuesOp{Rows: [][]Scalar{{outer}, {p}, {constInt(4)}}},
				LeftWidth: 2, RightWidth: 1,
				LeftKeys: []Scalar{k}, RightKeys: []Scalar{k},
				LeftOuter: true,
			}
		}},
		{"sort", func() Operator {
			return &SortOp{Child: &FilterOp{Child: scanWhere(nil), Pred: cmp(sqltypes.OpLe, k, p)}, Keys: []Scalar{v}, Desc: []bool{true}}
		}},
		{"top", func() Operator {
			return &TopOp{Child: &SortOp{Child: seek(outer), Keys: []Scalar{v}, Desc: []bool{false}}, N: p}
		}},
		{"distinct", func() Operator {
			return &DistinctOp{Child: &ProjectOp{Child: &FilterOp{Child: scanWhere(nil), Pred: cmp(sqltypes.OpGe, k, p)}, Exprs: []Scalar{plus(k, outer)}}}
		}},
		{"concat", func() Operator { return &ConcatOp{Children: []Operator{seek(p), seek(outer)}} }},
		{"hash aggregate", func() Operator {
			return &HashAggOp{Child: &FilterOp{Child: scanWhere(nil), Pred: cmp(sqltypes.OpGe, k, p)}, GroupKeys: []Scalar{k}, Aggs: allAggs()}
		}},
		{"scalar hash aggregate", func() Operator { return &HashAggOp{Child: seek(p), Aggs: allAggs()} }},
		{"scalar hash aggregate, empty input", func() Operator {
			return &HashAggOp{Child: &FilterOp{Child: seek(outer), Pred: cmp(sqltypes.OpGt, v, plus(p, constInt(6)))}, Aggs: allAggs()}
		}},
		{"stream aggregate", func() Operator {
			return &StreamAggOp{
				Child:     &SortOp{Child: &FilterOp{Child: scanWhere(nil), Pred: cmp(sqltypes.OpLe, k, p)}, Keys: []Scalar{k}, Desc: []bool{false}},
				GroupKeys: []Scalar{k}, Aggs: allAggs(),
			}
		}},
		{"scalar stream aggregate", func() Operator { return &StreamAggOp{Child: seek(p), Aggs: allAggs()} }},
		{"recursive CTE", func() Operator {
			delta := new([]Row)
			return &RecursiveCTEOp{
				Seed: &ValuesOp{Rows: [][]Scalar{{p}, {outer}}},
				Recursive: &ProjectOp{
					Child: &FilterOp{Child: &DeltaScanOp{Source: delta}, Pred: cmp(sqltypes.OpLt, k, plus(p, constInt(3)))},
					Exprs: []Scalar{plus(k, constInt(1))},
				},
				Delta: delta,
			}
		}},
	}
}

// pass opens, drains and closes op under ctx.
func pass(ctx *Ctx, op Operator) ([]Row, error) {
	err := op.Open(ctx)
	var rows []Row
	for err == nil {
		var r Row
		if r, err = op.Next(ctx); r == nil {
			break
		}
		rows = append(rows, r)
	}
	op.Close()
	return rows, err
}

func TestOperatorsReopen(t *testing.T) {
	tab := reopenTable(t)
	a, b := reopenCtx(tab, 1, 3, false), reopenCtx(tab, 2, 4, false)
	for _, c := range reopenCases(tab) {
		t.Run(c.name, func(t *testing.T) {
			fresh := func(ctx *Ctx) string {
				rows, err := pass(ctx, c.build())
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(rows)
			}
			wantA, wantB := fresh(a), fresh(b)
			if wantA == wantB {
				t.Fatalf("both bindings answer %s: the case does not tell passes apart", wantA)
			}
			op := c.build()
			for i, step := range []struct {
				ctx  *Ctx
				want string
			}{{a, wantA}, {b, wantB}, {a, wantA}} {
				rows, err := pass(step.ctx, op)
				if err != nil {
					t.Fatalf("pass %d: %v", i+1, err)
				}
				if got := fmt.Sprint(rows); got != step.want {
					t.Errorf("pass %d: got %s, want %s", i+1, got, step.want)
				}
			}
		})
	}
}

func TestOperatorsReopenAfterError(t *testing.T) {
	tab := reopenTable(t)
	b := reopenCtx(tab, 2, 4, false)
	for _, c := range reopenCases(tab) {
		t.Run(c.name, func(t *testing.T) {
			want, err := pass(b, c.build())
			if err != nil {
				t.Fatal(err)
			}
			op := c.build()
			if _, err := pass(reopenCtx(tab, 1, 3, false), op); err != nil {
				t.Fatal(err)
			}
			if _, err := pass(reopenCtx(tab, 1, 3, true), op); !errors.Is(err, errBoom) {
				t.Fatalf("failing pass: err %v, want %v", err, errBoom)
			}
			got, err := pass(b, op)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after a failed pass: got %v, want %v", got, want)
			}
		})
	}
}

// TestCtxIdleTrees: a tree is handed out once per put, and a context keeps
// at most maxIdleTrees idle trees, dropping the oldest first.
func TestCtxIdleTrees(t *testing.T) {
	ctx := &Ctx{}
	keys := make([]*TreeKey, maxIdleTrees+8)
	trees := make([]Operator, len(keys))
	for i := range keys {
		keys[i], trees[i] = new(TreeKey), &OneRowOp{}
		ctx.PutTree(keys[i], trees[i])
	}
	for i, key := range keys {
		got := ctx.TakeTree(key)
		if evicted := i < len(keys)-maxIdleTrees; evicted != (got == nil) || (got != nil && got != trees[i]) {
			t.Errorf("key %d: TakeTree = %v, evicted %v", i, got, evicted)
		}
		if again := ctx.TakeTree(key); again != nil {
			t.Errorf("key %d: a second TakeTree returned the same tree", i)
		}
	}
	twice := new(TreeKey)
	ctx.PutTree(twice, trees[0])
	ctx.PutTree(twice, trees[1])
	if a, b := ctx.TakeTree(twice), ctx.TakeTree(twice); a == nil || b == nil || a == b {
		t.Errorf("two idle trees under one key: took %v and %v", a, b)
	}
}
