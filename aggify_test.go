package aggify_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"aggify"
	"aggify/internal/exec"
	"aggify/internal/server"
)

func newDemoDB(t *testing.T) *aggify.DB {
	t.Helper()
	db := aggify.Open()
	if err := db.Exec(`
create table partsupp (ps_partkey int, ps_suppkey int, ps_supplycost decimal(15,2));
create index idx_ps on partsupp(ps_partkey);
create table supplier (s_suppkey int, s_name char(25));
create index pk_s on supplier(s_suppkey);
insert into supplier values (10, 'acme'), (11, 'bolts inc');
insert into partsupp values (1, 10, 5.0), (1, 11, 3.5), (2, 10, 7.0);
GO
create function minCostSupp(@pkey int) returns char(25) as
begin
  declare @pCost decimal(15,2);
  declare @sName char(25);
  declare @minCost decimal(15,2) = 100000;
  declare @suppName char(25);
  declare c cursor for
    select ps_supplycost, s_name from partsupp, supplier
    where ps_partkey = @pkey and ps_suppkey = s_suppkey;
  open c;
  fetch next from c into @pCost, @sName;
  while @@fetch_status = 0
  begin
    if @pCost < @minCost
    begin
      set @minCost = @pCost;
      set @suppName = @sName;
    end
    fetch next from c into @pCost, @sName;
  end
  close c;
  deallocate c;
  return @suppName;
end`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFacadeQueryAndCall(t *testing.T) {
	db := newDemoDB(t)
	v, err := db.Call("minCostSupp", aggify.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(v.Str()) != "bolts inc" {
		t.Fatalf("minCostSupp(1) = %q", v.Str())
	}
	rows, err := db.Query("select count(*) from partsupp")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 3 {
		t.Fatalf("count = %v", rows.Data)
	}
	if _, err := db.QueryScalar("select 6 * 7"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAggifyInPlace(t *testing.T) {
	db := newDemoDB(t)
	before, err := db.Call("minCostSupp", aggify.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.AggifyFunction("minCostSupp", aggify.TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LoopsTransformed != 1 {
		t.Fatalf("loops = %d (skipped %v)", res.LoopsTransformed, res.Skipped)
	}
	if len(res.AggregateSources) != 1 || !strings.Contains(res.AggregateSources[0], "CREATE AGGREGATE") {
		t.Fatalf("aggregate sources = %v", res.AggregateSources)
	}
	if strings.Contains(strings.ToUpper(res.RewrittenSource), "CURSOR") {
		t.Fatalf("rewritten source still has a cursor:\n%s", res.RewrittenSource)
	}
	after, err := db.Call("minCostSupp", aggify.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if before.Str() != after.Str() {
		t.Fatalf("results differ: %q vs %q", before.Str(), after.Str())
	}
}

func TestFacadeTransformSource(t *testing.T) {
	src := `
create function f(@n int) returns int as
begin
  declare @v int;
  declare @s int = 0;
  declare c cursor for select v from t where k = @n;
  open c;
  fetch next from c into @v;
  while @@fetch_status = 0
  begin
    set @s = @s + @v;
    fetch next from c into @v;
  end
  close c;
  deallocate c;
  return @s;
end`
	results, err := aggify.TransformSource(src, aggify.TransformOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].LoopsTransformed != 1 {
		t.Fatalf("results = %+v", results)
	}
	d := results[0].Details[0]
	if len(d.Params) == 0 || len(d.VTerm) != 1 {
		t.Fatalf("details = %+v", d)
	}
}

func TestFacadeNativeAggregate(t *testing.T) {
	db := newDemoDB(t)
	if err := db.RegisterAggregate("geomean", false, func() aggify.Aggregator {
		return &geoMeanAgg{}
	}); err != nil {
		t.Fatal(err)
	}
	v, err := db.QueryScalar("select geomean(ps_supplycost) from partsupp where ps_partkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := 4.183300132670378 // sqrt(5.0 * 3.5)
	if d := v.Float() - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("geomean = %v, want %v", v, want)
	}
}

type geoMeanAgg struct {
	product float64
	n       int
}

func (g *geoMeanAgg) Init() { g.product, g.n = 1, 0 }
func (g *geoMeanAgg) Accumulate(args []aggify.Value) error {
	f, _ := args[0].AsFloat()
	g.product *= f
	g.n++
	return nil
}
func (g *geoMeanAgg) Terminate() (aggify.Value, error) {
	if g.n == 0 {
		return aggify.Null, nil
	}
	return aggify.Float(math.Pow(g.product, 1/float64(g.n))), nil
}

// TestNativeAggregateResetEqualsNew: the executor keeps aggregate
// instances and Resets them (Init) between groups and re-Opens, so a native
// aggregate after Reset must answer as a new instance does.
func TestNativeAggregateResetEqualsNew(t *testing.T) {
	db := aggify.Open()
	if err := db.RegisterAggregate("geomean", false, func() aggify.Aggregator { return &geoMeanAgg{} }); err != nil {
		t.Fatal(err)
	}
	spec, ok := db.Engine().Aggregate("geomean")
	if !ok {
		t.Fatal("geomean not registered")
	}
	fold := func(agg exec.Aggregator, vals ...float64) string {
		agg.Reset()
		for _, v := range vals {
			if err := agg.Step(nil, []aggify.Value{aggify.Float(v)}); err != nil {
				return err.Error()
			}
		}
		v, err := agg.Result(nil)
		return fmt.Sprint(v, err)
	}
	used := spec.New()
	inputs := [][]float64{{2, 8}, {}, {5}, {1, 4, 16}}
	for _, first := range inputs {
		for _, second := range inputs {
			fold(used, first...)
			if got, want := fold(used, second...), fold(spec.New(), second...); got != want {
				t.Errorf("over %v after %v: got %s, a new instance %s", second, first, got, want)
			}
		}
	}
}

// TestRedefinedAggregateReplans: a plan binds the *exec.AggSpec it was
// compiled against, so redefining an aggregate (CREATE AGGREGATE again, or a
// native spec registered under the same name) must not be answered from a
// plan bound to the old one. The same statement text is sent every time,
// embedded and through server.Backend.Exec, which is the path aggifyd takes.
func TestRedefinedAggregateReplans(t *testing.T) {
	foldAgg := func(factor int) string {
		return fmt.Sprintf(`
create aggregate FoldAgg(@v float) returns float as
begin
  fields (@acc float);
  init begin set @acc = 0; end
  accumulate begin set @acc = @acc + @v * %d; end
  terminate begin return @acc; end
end`, factor)
	}
	const sql = "select FoldAgg(v) from series"

	db := aggify.Open()
	backend := server.NewBackend(db.Engine())
	defer backend.Close()
	execs := map[string]func(string) error{
		"embedded": db.Exec,
		"backend":  func(src string) error { _, err := backend.Exec(src); return err },
	}
	answers := map[string]func() float64{
		"embedded": func() float64 {
			v, err := db.QueryScalar(sql)
			if err != nil {
				t.Fatal(err)
			}
			return v.Float()
		},
		"backend": func() float64 {
			res, err := backend.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			return res.Sets[0].Rows[0][0].Float()
		},
	}
	if err := db.Exec("create table series (v float); insert into series values (1.0), (2.0);"); err != nil {
		t.Fatal(err)
	}
	for _, via := range []string{"embedded", "backend"} {
		for _, step := range []struct {
			factor int
			want   float64
		}{{1, 3}, {10, 30}} {
			if err := execs[via](foldAgg(step.factor)); err != nil {
				t.Fatal(err)
			}
			for _, ask := range []string{"embedded", "backend"} {
				if got := answers[ask](); got != step.want {
					t.Fatalf("FoldAgg(@v * %d) defined via %s, asked via %s: got %v, want %v",
						step.factor, via, ask, got, step.want)
				}
			}
		}
	}
	// A native spec under the existing name replaces the interpreted one.
	if err := db.RegisterAggregate("FoldAgg", false, func() aggify.Aggregator { return &geoMeanAgg{} }); err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2)
	for _, ask := range []string{"embedded", "backend"} {
		if got := answers[ask](); math.Abs(got-want) > 1e-9 {
			t.Fatalf("native FoldAgg asked via %s: got %v, want %v", ask, got, want)
		}
	}
}

func TestFacadeInlineAndExplain(t *testing.T) {
	db := newDemoDB(t)
	if _, err := db.AggifyFunction("minCostSupp", aggify.TransformOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("create table part (p_partkey int); insert into part values (1), (2);"); err != nil {
		t.Fatal(err)
	}
	inlined, names, err := db.InlineFunction("select p_partkey, minCostSupp(p_partkey) from part")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("inlined %v", names)
	}
	plan, err := db.Explain(inlined)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoin") {
		t.Fatalf("expected decorrelated plan:\n%s", plan)
	}
	rows, err := db.Query(inlined)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("rows = %v", rows.Data)
	}
}

func TestFacadeClientConnection(t *testing.T) {
	db := newDemoDB(t)
	conn := db.Connect(aggify.LAN)
	stmt, err := conn.Prepare("select ps_supplycost from partsupp where ps_partkey = ?")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stmt.Query(aggify.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs.Next() {
		n++
	}
	if n != 2 {
		t.Fatalf("rows = %d", n)
	}
	if conn.Meter().RowsTransferred != 2 {
		t.Fatalf("meter = %+v", conn.Meter())
	}
}

func TestFacadeErrors(t *testing.T) {
	db := aggify.Open()
	if err := db.Exec("not valid sql"); err == nil {
		t.Fatal("bad script should error")
	}
	if _, err := db.Query("insert into t values (1)"); err == nil {
		t.Fatal("Query of non-SELECT should error")
	}
	if _, err := db.AggifyFunction("missing", aggify.TransformOptions{}); err == nil {
		t.Fatal("missing function should error")
	}
}
