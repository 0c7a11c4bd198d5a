package engine_test

import (
	"math/rand"
	"sort"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/core"
	"aggify/internal/engine"
	"aggify/internal/exec"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
)

// The §3.1 Merge contract, checked without any operator: folding K
// partitions of an input separately and merging the partials must equal
// folding the whole input.

// customMergeDDL is a hand-written mergeable sum.
const customMergeDDL = `
create aggregate MergeSum(@v int) returns int as
begin
  fields (@s int, @isInitialized bit);
  init begin set @isInitialized = false; end
  accumulate begin
    if @isInitialized = false
    begin
      set @s = 0;
      set @isInitialized = true;
    end
    set @s = @s + @v;
  end
  terminate begin return @s; end
  merge begin
    if @other_isInitialized = true
    begin
      if @isInitialized = true
      begin
        set @s = @s + @other_s;
      end
      else
      begin
        set @s = @other_s;
        set @isInitialized = true;
      end
    end
  end
end`

// specMergeProperty splits vals into random contiguous partitions, folds each
// into its own instance, merges in partition order, and requires the exact
// serial result. Display comparison covers tuple-returning aggregates too.
func specMergeProperty(t *testing.T, sess *engine.Session, spec *exec.AggSpec,
	rng *rand.Rand, vals []sqltypes.Value, extraArgs []sqltypes.Value) {
	t.Helper()
	ctx := sess.Ctx(nil, nil)
	accumulate := func(vs []sqltypes.Value) exec.Aggregator {
		a := spec.New()
		a.Reset()
		for _, v := range vs {
			args := append([]sqltypes.Value{v}, extraArgs...)
			if err := a.Step(ctx, args); err != nil {
				t.Fatalf("%s: step: %v", spec.Name, err)
			}
		}
		return a
	}
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(len(vals) + 1)
		k := 1 + rng.Intn(5)
		cuts := make([]int, k+1)
		cuts[k] = n
		for i := 1; i < k; i++ {
			cuts[i] = rng.Intn(n + 1)
		}
		sort.Ints(cuts)
		serial := accumulate(vals[:n])
		want, err := serial.Result(ctx)
		if err != nil {
			t.Fatalf("%s: serial result: %v", spec.Name, err)
		}
		merged := accumulate(vals[cuts[0]:cuts[1]])
		for p := 1; p < k; p++ {
			part := accumulate(vals[cuts[p]:cuts[p+1]])
			if err := merged.Merge(part); err != nil {
				t.Fatalf("%s: merge: %v", spec.Name, err)
			}
		}
		got, err := merged.Result(ctx)
		if err != nil {
			t.Fatalf("%s: merged result: %v", spec.Name, err)
		}
		if want.Display() != got.Display() {
			t.Fatalf("trial %d %s: serial %s != merged %s (n=%d cuts=%v)",
				trial, spec.Name, want.Display(), got.Display(), n, cuts)
		}
	}
}

func propertyInput(rng *rand.Rand, n int, withNulls bool) []sqltypes.Value {
	vals := make([]sqltypes.Value, n)
	for i := range vals {
		if withNulls && rng.Intn(12) == 0 {
			vals[i] = sqltypes.Null
		} else {
			vals[i] = sqltypes.NewInt(rng.Int63n(201) - 100)
		}
	}
	return vals
}

// TestCustomMergeProperty runs the K-partition property against the same
// definition on both execution paths: compiled (registered through the
// engine) and interpreted (InterpretedAggSpec), NULLs included.
func TestCustomMergeProperty(t *testing.T) {
	sess := newDB(t, "")
	if _, err := interp.RunScript(sess, parser.MustParse(customMergeDDL)); err != nil {
		t.Fatal(err)
	}
	compiled, ok := sess.Eng.Aggregate("mergesum")
	if !ok || !compiled.Mergeable {
		t.Fatalf("expected a mergeable compiled spec, got %+v", compiled)
	}
	def, ok := sess.Eng.AggregateSource("mergesum")
	if !ok {
		t.Fatal("no aggregate source for mergesum")
	}
	interpreted := interp.InterpretedAggSpec(def, false)
	if !interpreted.Mergeable {
		t.Fatal("interpreted spec should be mergeable")
	}
	rng := rand.New(rand.NewSource(7))
	vals := propertyInput(rng, 120, true)
	t.Run("compiled", func(t *testing.T) { specMergeProperty(t, sess, compiled, rng, vals, nil) })
	t.Run("interpreted", func(t *testing.T) { specMergeProperty(t, sess, interpreted, rng, vals, nil) })
}

// TestGeneratedAggregateMerge runs Aggify on a cursor loop whose Δ is an
// additive fold and checks the generator derived a MERGE section, that the
// resulting spec is mergeable, that the rewritten function matches the
// cursor loop, and that the K-partition property holds for the generated
// aggregate (non-zero initial values exercise the hidden base-field
// subtraction).
func TestGeneratedAggregateMerge(t *testing.T) {
	sess := newDB(t, "create table vals (k int, v int);")
	tab, _ := sess.Eng.Table("vals")
	for i := int64(0); i < 6000; i++ {
		_ = tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(i % 11), sqltypes.NewInt(i % 503)})
	}
	if _, err := interp.RunScript(sess, parser.MustParse(`
create function sumAll(@init int) returns int as
begin
  declare @val int;
  declare @s int = @init;
  declare @n int = 0;
  declare c cursor for select v from vals;
  open c;
  fetch next from c into @val;
  while @@fetch_status = 0
  begin
    set @s = @s + @val;
    set @n = @n + 1;
    fetch next from c into @val;
  end
  close c;
  deallocate c;
  return @s + @n;
end`)); err != nil {
		t.Fatal(err)
	}
	before, err := interp.CallFunctionByName(sess, "sumAll", sqltypes.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}

	def, _ := sess.Eng.Function("sumAll")
	rewritten, res, err := core.TransformFunction(def, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("loops transformed = %d (skipped %v)", len(res.Loops), res.Skipped)
	}
	lr := res.Loops[0]
	if lr.Aggregate.Merge == nil {
		t.Fatalf("additive fold should derive a MERGE section:\n%s", ast.Format(lr.Aggregate))
	}
	if err := sess.Eng.RegisterAggregate(lr.Aggregate, lr.OrderSensitive); err != nil {
		t.Fatal(err)
	}
	if err := sess.Eng.RegisterFunction(rewritten); err != nil {
		t.Fatal(err)
	}
	sess.Eng.InvalidatePlans()

	spec, ok := sess.Eng.Aggregate(lr.Aggregate.Name)
	if !ok {
		t.Fatalf("generated aggregate %s not registered", lr.Aggregate.Name)
	}
	if !spec.Mergeable {
		t.Fatal("generated spec should be mergeable")
	}

	// The rewritten function must agree with the original cursor loop.
	after, err := interp.CallFunctionByName(sess, "sumAll", sqltypes.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if before.Display() != after.Display() {
		t.Fatalf("rewrite changed the result: %s vs %s", before.Display(), after.Display())
	}

	// K-partition property for the generated aggregate. Parameter order is
	// fetch variables first, then @p_ parameters for the initialized fields
	// in sorted field order (@n before @s).
	rng := rand.New(rand.NewSource(11))
	vals := propertyInput(rng, 150, false)
	extra := []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(7)} // @p_n = 3, @p_s = 7
	specMergeProperty(t, sess, spec, rng, vals, extra)
}
