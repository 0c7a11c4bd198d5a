package interp

import (
	"fmt"
	"testing"

	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
)

// resetAggSources are aggregate bodies that keep state beyond their fields:
// a table variable and a Terminate subquery over it, a nested cursor loop,
// and an Accumulate that can fail half-way.
var resetAggSources = []string{
	sumAggSrc,
	`
create aggregate KeepAll(@v int, @unused float) returns int as
begin
  fields (@n int);
  init begin set @n = 0; declare @t table (x int); end
  accumulate begin insert into @t values (@v); set @n = @n + 1; end
  terminate begin return (select sum(x) from @t) * 10 + @n; end
end`,
	`
create aggregate DetailSum(@k int, @unused float) returns int as
begin
  fields (@total int);
  init begin set @total = 0; end
  accumulate begin
    declare @v int;
    declare c cursor for select v from details where k = @k;
    open c;
    fetch next from c into @v;
    while @@fetch_status = 0
    begin
      set @total = @total + @v;
      fetch next from c into @v;
    end
    close c;
    deallocate c;
  end
  terminate begin return @total; end
end`,
	`
create aggregate InvSum(@v int, @unused float) returns int as
begin
  fields (@s int);
  init begin set @s = 0; end
  accumulate begin set @s = @s + 100 / @v; end
  terminate begin return @s; end
end`,
}

// TestAggregatorResetEqualsNew checks the compiled and the interpreted
// aggregate: Step, Reset, Step gives what a new instance gives. A compiled
// instance keeps its machine across Reset, an interpreted one its runner.
func TestAggregatorResetEqualsNew(t *testing.T) {
	eng := engine.New()
	Install(eng)
	sess := eng.NewSession()
	if _, err := RunScript(sess, parser.MustParse(`
create table details (k int, v int);
insert into details values (1, 10), (1, 15), (2, 10), (3, 7);
`)); err != nil {
		t.Fatal(err)
	}
	inputs := [][]int64{{1, 2, 3}, {}, {2, 0, 1}, {3}, {5, 1}}
	fold := func(agg exec.Aggregator, ctx *exec.Ctx, vals []int64) string {
		agg.Reset()
		for _, v := range vals {
			if err := agg.Step(ctx, []sqltypes.Value{sqltypes.NewInt(v), sqltypes.NewFloat(0)}); err != nil {
				return "error: " + err.Error()
			}
		}
		v, err := agg.Result(ctx)
		return fmt.Sprint(v, err)
	}
	for _, src := range resetAggSources {
		def := parseAgg(t, src)
		compiled, err := newAggSpec(eng, def, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := compiled.New().(*compiledAgg); !ok {
			t.Fatalf("%s: expected the compiled aggregate, got %T", def.Name, compiled.New())
		}
		for tier, spec := range map[string]*exec.AggSpec{"compiled": compiled, "interpreted": InterpretedAggSpec(def, false)} {
			ctx := sess.Ctx(nil, nil)
			used := spec.New()
			for _, first := range inputs {
				for _, second := range inputs {
					fold(used, ctx, first)
					got := fold(used, ctx, second)
					if want := fold(spec.New(), sess.Ctx(nil, nil), second); got != want {
						t.Errorf("%s %s over %v after %v: got %s, a new instance %s", tier, def.Name, second, first, got, want)
					}
				}
			}
		}
	}
}
