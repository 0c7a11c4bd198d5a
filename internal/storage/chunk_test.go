package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aggify/internal/sqltypes"
	"aggify/internal/txn"
)

// chunkSchema has one column of every chunked kind beside the row id.
func chunkSchema() *Schema {
	return NewSchema(Col("id", sqltypes.Int), Col("a", sqltypes.Int), Col("d", sqltypes.Date), Col("f", sqltypes.Float))
}

// rangeFilter is `a >= lo AND d < hi AND f <= fhi`, every comparison with
// NULL unknown. Reject evaluates it from the column chunks; match on rows.
type rangeFilter struct {
	lo, hi int64
	fhi    float64
}

func (f *rangeFilter) Reject(cur *Cursor, n int, rej *Bitmap) bool {
	a := cur.Column(1)
	if a == nil {
		return false
	}
	for i := 0; i < n; i++ {
		if a.Null.has(i) || a.Ints[i] < f.lo {
			rej.set(i)
		}
	}
	d := cur.Column(2)
	if d == nil {
		return false
	}
	for i := 0; i < n; i++ {
		if d.Null.has(i) || d.Ints[i] >= f.hi {
			rej.set(i)
		}
	}
	fc := cur.Column(3)
	if fc == nil {
		return false
	}
	for i := 0; i < n; i++ {
		if fc.Null.has(i) || fc.Floats[i] > f.fhi {
			rej.set(i)
		}
	}
	return false
}

func (f *rangeFilter) match(row []sqltypes.Value) bool {
	return !row[1].IsNull() && row[1].Int() >= f.lo &&
		!row[2].IsNull() && row[2].Int() < f.hi &&
		!row[3].IsNull() && row[3].Float() <= f.fhi
}

// scanChunked drains a cursor over tab at snap in refills of max rows and
// returns the ids of the rows passing f with the logical reads charged.
// With chunked set the cursor skips what f rejects from the chunks.
func scanChunked(tab *Table, snap *txn.Snapshot, f *rangeFilter, chunked bool, max int) ([]int64, int64) {
	var stats Stats
	var cur Cursor
	tab.OpenCursor(&cur, snap)
	if chunked {
		cur.SetFilter(f)
	}
	var ids []int64
	for cur.Next(&stats, max, func(row []sqltypes.Value) {
		if f.match(row) {
			ids = append(ids, row[0].Int())
		}
	}) > 0 {
	}
	return ids, stats.LogicalReads.Load()
}

// randomChunkRow draws a row whose columns are NULL one time in eight.
func randomChunkRow(rng *rand.Rand, id int64) []sqltypes.Value {
	null := func() bool { return rng.Intn(8) == 0 }
	row := []sqltypes.Value{sqltypes.NewInt(id), sqltypes.Null, sqltypes.Null, sqltypes.Null}
	if !null() {
		row[1] = sqltypes.NewInt(int64(rng.Intn(100) - 50))
	}
	if !null() {
		row[2] = sqltypes.NewDate(int64(9000 + rng.Intn(400)))
	}
	if !null() {
		row[3] = sqltypes.NewFloat(float64(rng.Intn(2000))/10 - 100)
	}
	return row
}

// TestChunkedCursorDifferential interleaves random inserts, updates,
// deletes, rollbacks, vacuums and truncates with scans from a fresh
// snapshot, an old pinned one, a transaction holding uncommitted writes and
// the latest committed state, and checks that a cursor rejecting rows from
// column chunks yields the rows and charges the reads of one that loads
// every row. Each scan runs twice: the first fills the chunks.
func TestChunkedCursorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mgr := txn.NewManager()
			tab := NewTable("c", chunkSchema())
			tab.Bind(mgr)
			nextID := int64(0)
			newRow := func() []sqltypes.Value { nextID++; return randomChunkRow(rng, nextID) }
			var rows [][]sqltypes.Value
			for i := 0; i < 2*ChunkSlots+300; i++ {
				rows = append(rows, newRow())
			}
			if err := tab.InsertMany(nil, rows); err != nil {
				t.Fatal(err)
			}
			// write applies one random mutation in tx (nil = autocommit);
			// conflicts with the open transaction are expected and skipped.
			write := func(tx *txn.Txn) {
				n := tab.SlotCount()
				rid := rng.Intn(n + 1)
				switch op := rng.Intn(10); {
				case op < 2 || n == 0:
					_ = tab.Insert(tx, newRow())
				case op < 8:
					_ = tab.Update(tx, min(rid, n-1), newRow())
				default:
					_ = tab.Delete(tx, min(rid, n-1))
				}
			}
			var old *txn.Snapshot
			var open *txn.Txn
			for step := 0; step < 80; step++ {
				switch op := rng.Intn(20); {
				case op < 8:
					write(nil)
				case op < 10:
					tx := mgr.Begin()
					for i := rng.Intn(5); i >= 0; i-- {
						write(tx)
					}
					tx.Rollback()
				case op < 12:
					if old != nil {
						old.Release()
					}
					old = mgr.Acquire()
				case op < 14:
					if open != nil {
						if rng.Intn(2) == 0 {
							open.Rollback()
						} else {
							_ = open.Commit()
						}
					}
					open = mgr.Begin()
					for i := rng.Intn(4); i >= 0; i-- {
						write(open)
					}
				case op < 16:
					tab.Vacuum(mgr.OldestVisible())
				case op == 16 && rng.Intn(4) == 0 && open == nil:
					if err := tab.Truncate(nil); err != nil {
						t.Fatal(err)
					}
					for i := rng.Intn(ChunkSlots + 200); i > 0; i-- {
						write(nil)
					}
				default:
					for i := rng.Intn(30); i >= 0; i-- {
						write(nil)
					}
				}
				f := &rangeFilter{lo: int64(rng.Intn(60) - 30), hi: int64(9000 + rng.Intn(400)), fhi: float64(rng.Intn(200) - 50)}
				fresh := mgr.Acquire()
				snaps := map[string]*txn.Snapshot{"fresh": fresh, "latest": nil}
				if old != nil {
					snaps["old"] = old
				}
				if open != nil {
					snaps["txn"] = open.Snapshot()
				}
				for name, snap := range snaps {
					max := 1 + rng.Intn(1500)
					want, wantReads := scanChunked(tab, snap, f, false, max)
					for run := 1; run <= 2; run++ {
						got, reads := scanChunked(tab, snap, f, true, max)
						if !reflect.DeepEqual(got, want) || reads != wantReads {
							t.Fatalf("step %d, %s snapshot, run %d: chunked scan gave %d rows and %d reads, row scan %d rows and %d reads\nchunked %v\nrows    %v",
								step, name, run, len(got), reads, len(want), wantReads, got, want)
						}
					}
				}
				fresh.Release()
			}
			if tab.ChunkRejects() == 0 {
				t.Error("no scan rejected a row from a chunk")
			}
		})
	}
}

// TestChunkedCursorWarmAllocs: once its chunks are built, a chunked scan
// allocates nothing.
func TestChunkedCursorWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab, mgr := NewTable("c", chunkSchema()), txn.NewManager()
	tab.Bind(mgr)
	var rows [][]sqltypes.Value
	for i := 0; i < 3*ChunkSlots; i++ {
		rows = append(rows, randomChunkRow(rng, int64(i)))
	}
	if err := tab.InsertMany(nil, rows); err != nil {
		t.Fatal(err)
	}
	snap := mgr.Acquire()
	defer snap.Release()
	f := &rangeFilter{lo: 0, hi: 9200, fhi: 50}
	fn := func([]sqltypes.Value) {}
	var stats Stats
	var cur Cursor
	scan := func() {
		tab.OpenCursor(&cur, snap)
		cur.SetFilter(f)
		for cur.Next(&stats, ChunkSlots, fn) > 0 {
		}
	}
	scan() // build the chunks
	before := tab.ChunkRejects()
	allocs := testing.AllocsPerRun(20, scan)
	if allocs != 0 {
		t.Errorf("a warm chunked scan allocates %v times, want 0", allocs)
	}
	if tab.ChunkRejects() == before {
		t.Error("the warm scans rejected no row from a chunk")
	}
}
