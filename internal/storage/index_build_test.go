package storage

import (
	"math/rand"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// flatEntries lists an index's entries in page order.
func flatEntries(ix *OrderedIndex) []entry {
	var out []entry
	for _, pg := range ix.pages {
		out = append(out, pg...)
	}
	return out
}

// checkPages asserts the page invariants every add, remove and load keeps.
func checkPages(t *testing.T, label string, ix *OrderedIndex) {
	t.Helper()
	for p, pg := range ix.pages {
		if len(pg) == 0 || len(pg) > 2*orderedPageCap {
			t.Fatalf("%s: page %d holds %d entries, want 1..%d", label, p, len(pg), 2*orderedPageCap)
		}
	}
}

// TestCreateIndexBuildMatchesIncremental grows one index entry by entry
// through random inserts, updates, deletes and rollbacks while pinned
// snapshots keep old versions in the chains, then checks that the sort-once
// build over the same chains holds the same (key, rid) sequence.
func TestCreateIndexBuildMatchesIncremental(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, mgr := managedTable(t)
		if err := tab.CreateIndex("id"); err != nil {
			t.Fatal(err)
		}
		key := func() []sqltypes.Value {
			if rng.Intn(20) == 0 {
				return []sqltypes.Value{sqltypes.Null, sqltypes.NewString("n"), sqltypes.NewFloat(0)}
			}
			return row(int64(rng.Intn(300)), "v", 0)
		}
		liveRid := func() (int, bool) {
			n := tab.SlotCount()
			if n == 0 {
				return 0, false
			}
			rid := rng.Intn(n)
			return rid, tab.Row(nil, rid) != nil
		}
		var pinned []*txn.Snapshot
		for op := 0; op < 3000; op++ {
			var err error
			switch r := rng.Intn(20); {
			case r < 9:
				err = tab.Insert(nil, key())
			case r < 13:
				if rid, ok := liveRid(); ok {
					err = tab.Update(nil, rid, key())
				}
			case r < 15:
				if rid, ok := liveRid(); ok {
					err = tab.Delete(nil, rid)
				}
			case r < 17:
				tx := mgr.Begin()
				_ = tab.Insert(tx, key())
				if rid, ok := liveRid(); ok {
					_ = tab.Update(tx, rid, key())
				}
				if rid, ok := liveRid(); ok {
					_ = tab.Update(tx, rid, key())
				}
				if rng.Intn(2) == 0 {
					tx.Rollback()
				} else {
					err = tx.Commit()
				}
			case r < 18:
				pinned = append(pinned, mgr.Acquire())
			case r < 19:
				if len(pinned) > 0 {
					i := rng.Intn(len(pinned))
					pinned[i].Release()
					pinned = append(pinned[:i], pinned[i+1:]...)
				}
			default:
				tab.Vacuum(mgr.OldestVisible())
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		inc := tab.Index("id")
		tab.mu.Lock()
		built := tab.buildIndex(inc.ord())
		tab.mu.Unlock()
		for _, s := range pinned {
			s.Release()
		}
		checkPages(t, "incremental", inc)
		checkPages(t, "built", built)
		want, got := flatEntries(inc), flatEntries(built)
		if len(got) != len(want) {
			t.Fatalf("seed %d: built index holds %d entries, incremental %d", seed, len(got), len(want))
		}
		retained := 0
		for i := range want {
			if got[i].rid != want[i].rid || !sqltypes.Equal(got[i].key, want[i].key) {
				t.Fatalf("seed %d entry %d: built (%v, %d), incremental (%v, %d)",
					seed, i, got[i].key, got[i].rid, want[i].key, want[i].rid)
			}
			if r := tab.Row(nil, want[i].rid); r == nil || !sqltypes.Equal(r[0], want[i].key) {
				retained++
			}
		}
		if retained == 0 {
			t.Fatalf("seed %d: no entry for a retained version; the pinned snapshots did not bite", seed)
		}
	}
}

// seekTable is a 60 000-row table whose id column holds 15 000 keys, four
// rows each, inserted in shuffled order.
func seekTable(tb testing.TB) *Table {
	tb.Helper()
	tab := NewTable("t", testSchema())
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(60000) {
		if err := tab.Insert(nil, row(int64(i%15000), "n", 0)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tab.CreateIndex("id"); err != nil {
		tb.Fatal(err)
	}
	return tab
}

// TestSeekAllocs pins an equality seek returning four rows at zero
// allocations per call: the candidate rids go into the caller's buffer.
func TestSeekAllocs(t *testing.T) {
	tab := seekTable(t)
	hits := 0
	fn := func(int, []sqltypes.Value) bool { hits++; return true }
	k := sqltypes.NewInt(777)
	var buf []int
	allocs := testing.AllocsPerRun(200, func() { tab.Seek(nil, nil, "id", k, &buf, fn) })
	if hits == 0 || hits%4 != 0 {
		t.Fatalf("seek matched %d rows over the runs, want 4 per run", hits)
	}
	if allocs != 0 {
		t.Fatalf("Table.Seek with a kept candidate buffer allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkIndexSeek(b *testing.B) {
	tab := seekTable(b)
	var stats Stats
	fn := func(int, []sqltypes.Value) bool { return true }
	var buf []int
	keys := make([]sqltypes.Value, 1024)
	for i := range keys {
		keys[i] = sqltypes.NewInt(int64(i * 13 % 15000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Seek(nil, &stats, "id", keys[i%len(keys)], &buf, fn)
	}
}
