package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"aggify/internal/sqltypes"
)

// mergeTrial accumulates vals serially and via K random contiguous
// partitions folded with Merge, returning both outcomes.
type mergeOutcome struct {
	val sqltypes.Value
	err error
}

func runMergeTrial(spec *AggSpec, vals []sqltypes.Value, cuts []int) (serial, merged mergeOutcome) {
	ctx := &Ctx{}
	accumulate := func(vs []sqltypes.Value) (Aggregator, error) {
		a := spec.New()
		a.Reset()
		for _, v := range vs {
			if err := a.Step(ctx, []sqltypes.Value{v}); err != nil {
				return nil, err
			}
		}
		return a, nil
	}
	if a, err := accumulate(vals); err != nil {
		serial.err = err
	} else {
		serial.val, serial.err = a.Result(ctx)
	}
	master, err := accumulate(vals[cuts[0]:cuts[1]])
	for p := 1; err == nil && p+1 < len(cuts); p++ {
		var part Aggregator
		if part, err = accumulate(vals[cuts[p]:cuts[p+1]]); err == nil {
			err = master.Merge(part)
		}
	}
	if err != nil {
		merged.err = err
	} else {
		merged.val, merged.err = master.Result(ctx)
	}
	return serial, merged
}

// approxEqual compares results exactly, except floats (AVG, float SUM) which
// get a relative tolerance: partitioned float addition associates
// differently, and that is accepted float behaviour, not a Merge bug.
func approxEqual(a, b sqltypes.Value) bool {
	if a.Kind() == sqltypes.KindFloat && b.Kind() == sqltypes.KindFloat {
		x, y := a.Float(), b.Float()
		if x == y {
			return true
		}
		d := math.Abs(x - y)
		return d <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return sqltypes.GroupEqual(a, b)
}

// randomCuts returns k+1 sorted partition boundaries over [0, n], allowing
// empty partitions.
func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, k+1)
	cuts[k] = n
	for i := 1; i < k; i++ {
		cuts[i] = rng.Intn(n + 1)
	}
	sort.Ints(cuts)
	return cuts
}

func mergeableBuiltins(t *testing.T) []*AggSpec {
	t.Helper()
	specs := BuiltinAggs()
	names := make([]string, 0, len(specs))
	for name, spec := range specs {
		if spec.Mergeable {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) < 5 {
		t.Fatalf("expected at least 5 mergeable builtins, got %v", names)
	}
	out := make([]*AggSpec, len(names))
	for i, name := range names {
		out[i] = specs[name]
	}
	return out
}

// Property: for every Mergeable builtin, splitting an input into K partitions,
// accumulating each into its own Aggregator, and folding the partials with
// Merge (in partition order) yields exactly the serial result — the §3.1
// Merge contract. Inputs mix NULLs, negatives, and
// (second loop) int64-overflow duals.
func TestMergePropertyBuiltins(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	specs := mergeableBuiltins(t)

	// Mixed-sign values small enough that SUM can never overflow: serial and
	// merged must agree exactly (floats within tolerance).
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(64) // include the empty input
		vals := make([]sqltypes.Value, n)
		for i := range vals {
			if rng.Intn(10) == 0 {
				vals[i] = sqltypes.Null
			} else {
				vals[i] = sqltypes.NewInt(rng.Int63n(2001) - 1000)
			}
		}
		cuts := randomCuts(rng, n, 1+rng.Intn(6))
		for _, spec := range specs {
			serial, merged := runMergeTrial(spec, vals, cuts)
			if serial.err != nil || merged.err != nil {
				t.Fatalf("trial %d %s: unexpected error (serial %v, merged %v)",
					trial, spec.Name, serial.err, merged.err)
			}
			if !approxEqual(serial.val, merged.val) {
				t.Fatalf("trial %d %s: serial %v != merged %v (n=%d cuts=%v)",
					trial, spec.Name, serial.val, merged.val, n, cuts)
			}
		}
	}

	// Overflow duals: non-negative values with occasional near-MaxInt64
	// spikes. Partial sums are monotone, so SUM overflows in the serial run
	// exactly when the merged run overflows (at a Step or at a Merge) — the
	// two paths must agree on error-vs-value, and on the value when both
	// succeed.
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(32)
		vals := make([]sqltypes.Value, n)
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = sqltypes.Null
			case 1, 2:
				vals[i] = sqltypes.NewInt(math.MaxInt64 - rng.Int63n(3))
			default:
				vals[i] = sqltypes.NewInt(rng.Int63n(1000))
			}
		}
		cuts := randomCuts(rng, n, 1+rng.Intn(6))
		for _, spec := range specs {
			serial, merged := runMergeTrial(spec, vals, cuts)
			if (serial.err != nil) != (merged.err != nil) {
				t.Fatalf("trial %d %s: overflow detection diverged: serial err %v, merged err %v (cuts=%v)",
					trial, spec.Name, serial.err, merged.err, cuts)
			}
			if serial.err == nil && !approxEqual(serial.val, merged.val) {
				t.Fatalf("trial %d %s: serial %v != merged %v (cuts=%v)",
					trial, spec.Name, serial.val, merged.val, cuts)
			}
		}
	}
}
