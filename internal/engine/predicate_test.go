package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/parser"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// seedRange fills table name(k int, v int) with k = 0..n-1, v = k % 10.
func seedRange(t *testing.T, eng *engine.Engine, name string, n int) {
	t.Helper()
	tab, err := eng.CreateTable(name, storage.NewSchema(storage.Col("k", sqltypes.Int), storage.Col("v", sqltypes.Int)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tab.Insert(nil, []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoundPredicateSharedPlanConcurrentSessions runs one cached plan — one
// *exec.Predicate — from 8 sessions at once, each with its own parameters.
// The invariants a kernel binds must live in the operator instance of each
// execution, never in the plan: under -race a shared slot is a reported
// race, and without it a wrong count.
func TestBoundPredicateSharedPlanConcurrentSessions(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	seedRange(t, eng, "sp", 3000)
	// One AST node, planned once, executed by everyone. The scan takes the
	// BETWEEN; the column-against-column conjunct keeps a FilterOp (with a
	// kernel after it) in the plan as well.
	q := parseSelect(t, "select count(*) from sp where k between ? and ? and v <= k and v in (?, 3)")
	warm := eng.NewSession()
	if _, err := warm.PlanQuery(q, nil); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := eng.NewSession()
			defer sess.Close()
			for i := 0; i < 60; i++ {
				lo, width, digit := int64(100*w+i), int64(10*(w+1)), int64(w)
				ctx := sess.Ctx(nil, nil)
				ctx.Params = []sqltypes.Value{sqltypes.NewInt(lo), sqltypes.NewInt(lo + width - 1), sqltypes.NewInt(digit)}
				_, rows, err := sess.Query(q, ctx)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Every run of 10 consecutive k holds each digit once.
				want := width / 10
				if digit != 3 {
					want *= 2
				}
				if got := rows[0][0].Int(); got != want {
					t.Errorf("worker %d, k in [%d, %d], v in (%d, 3): count %d, want %d", w, lo, lo+width-1, digit, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := eng.PlanCacheStats().Misses; n != 1 {
		t.Errorf("the shared statement compiled %d times, want 1", n)
	}
}

// TestFilteredScanAllocsIndependentOfTableSize is the allocation guard: a
// warm scan that filters must allocate the same number of objects over a
// 1 000-row and a 50 000-row table. A rejected row may cost nothing — not a
// buffered row, not a closure per refill.
func TestFilteredScanAllocsIndependentOfTableSize(t *testing.T) {
	eng := engine.New()
	interp.Install(eng)
	seedRange(t, eng, "small", 1000)
	seedRange(t, eng, "big", 50000)
	sess := eng.NewSession()
	defer sess.Close()
	params := []sqltypes.Value{sqltypes.NewInt(100), sqltypes.NewInt(149), sqltypes.NewInt(2)}
	// Both a plain projection and an aggregation go through the scan's
	// filter.
	for _, shape := range []string{
		"select k, v from %s where k between ? and ? and v >= ?",
		"select count(*), sum(v) from %s where k between ? and ? and v >= ?",
	} {
		var allocs [2]float64
		for i, table := range []string{"small", "big"} {
			q := parseSelect(t, fmt.Sprintf(shape, table))
			run := func() {
				ctx := sess.Ctx(nil, nil)
				ctx.Params = params
				if _, _, err := sess.Query(q, ctx); err != nil {
					t.Fatal(err)
				}
			}
			run() // plan, and grow what grows once
			allocs[i] = testing.AllocsPerRun(20, run)
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations over 1 000 rows, %v over 50 000", shape, allocs[0], allocs[1])
		}
	}
}

// TestDMLWhereUsesBoundPredicate checks UPDATE and DELETE select through the
// shared predicate with the closure's semantics: three-valued logic, the
// statement's variables, one logical read per visible row, and an
// invariant's error only when a row reaches it.
func TestDMLWhereUsesBoundPredicate(t *testing.T) {
	sess := newDB(t, `
create table d (k int, v int);
insert into d values (1, 10), (2, null), (3, 30), (4, 40), (5, null);`)
	run := func(src string) error {
		_, err := interp.RunScript(sess, parser.MustParse(src))
		return err
	}
	before := sess.Stats.LogicalReads.Load()
	if err := run("declare @lo int = 2; update d set v = 0 where k >= @lo and v is null;"); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats.LogicalReads.Load() - before; got != 5 {
		t.Errorf("UPDATE read %d rows, want 5 (one per visible row)", got)
	}
	// v > 15 is NULL-safe: the zeroed rows fail it, no row is NULL any more.
	if err := run("delete from d where v > 15 and k not between 4 and 9;"); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(query(t, sess, "select k, v from d order by k"))
	if want := "[[1 10] [2 0] [4 40] [5 0]]"; got != want {
		t.Errorf("after UPDATE and DELETE: %s, want %s", got, want)
	}
	// The failing invariant sits behind a conjunct that is FALSE on every
	// row, so it is never evaluated; alone, the first row raises it.
	if err := run("delete from d where k > 100 and v < 1 / 0;"); err != nil {
		t.Errorf("short-circuited invariant raised: %v", err)
	}
	if err := run("delete from d where v < 1 / 0;"); err == nil {
		t.Error("division by zero in a reached invariant did not raise")
	}
	if n := len(query(t, sess, "select k from d")); n != 4 {
		t.Errorf("%d rows left, want 4", n)
	}
}
