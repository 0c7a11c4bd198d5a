package server_test

import (
	"fmt"
	"runtime"
	"testing"

	"aggify/internal/engine"
	"aggify/internal/interp"
	"aggify/internal/server"
	"aggify/internal/sqltypes"
)

// TestPlanCacheBoundedUnderAdhocFlood: a daemon fed statements it will never
// see again must not keep what it compiled for them, and must keep what the
// other connections run again and again. Every request parses into new AST
// nodes, so the flood feeds the store a node-keyed entry per SELECT (plus
// one by text) and per scalar expression of a script.
func TestPlanCacheBoundedUnderAdhocFlood(t *testing.T) {
	const (
		requests = 20000
		hotEvery = 100
		heapMiB  = 8
	)
	eng := engine.New()
	interp.Install(eng)
	flood, prepared, udf := server.NewBackend(eng), server.NewBackend(eng), server.NewBackend(eng)
	defer flood.Close()
	defer prepared.Close()
	defer udf.Close()

	if _, err := flood.Exec(`
create table t (a int, b int);
insert into t values (1, 10), (2, 20), (3, 30), (4, 40);
create function total_upto(@a int) returns int as
begin
  declare @s int = 0;
  declare @b int;
  declare c cursor for select b from t where a <= @a;
  open c;
  fetch next from c into @b;
  while @@fetch_status = 0
  begin
    set @s = @s + @b;
    fetch next from c into @b;
  end
  close c;
  deallocate c;
  return @s;
end`); err != nil {
		t.Fatal(err)
	}
	stmt, err := prepared.Prepare("select b from t where a = ?")
	if err != nil {
		t.Fatal(err)
	}
	hot := func() {
		t.Helper()
		cur, _, err := prepared.Query(stmt, []sqltypes.Value{sqltypes.NewInt(3)})
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := prepared.Fetch(cur, 10)
		if err != nil || len(rows) != 1 || rows[0][0].Int() != 30 {
			t.Fatalf("prepared statement: rows %v, err %v", rows, err)
		}
		res, err := udf.Exec("select total_upto(3)")
		if err != nil || res.Sets[0].Rows[0][0].Int() != 60 {
			t.Fatalf("udf call: %v, err %v", res, err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for _, fl := range []struct {
		name    string
		request func(i int) string
	}{
		{"select", func(i int) string { return fmt.Sprintf("select b from t where a = %d", i) }},
		{"script", func(i int) string {
			return fmt.Sprintf("declare @x int = %d; set @x = @x + 1; if @x > %d set @x = 0;", i, i)
		}},
	} {
		hot()
		before := heap()
		for i := 0; i < requests; i++ {
			if _, err := flood.Exec(fl.request(i)); err != nil {
				t.Fatal(err)
			}
			if i%hotEvery == 0 {
				hot()
			}
			if n := eng.PlanCacheStats().Entries; n > engine.PlanCacheCap {
				t.Fatalf("%s flood: %d entries, capacity %d", fl.name, n, engine.PlanCacheCap)
			}
		}
		grew := (float64(heap()) - float64(before)) / (1 << 20)
		t.Logf("%s flood: heap grew %.2f MiB, %+v", fl.name, grew, eng.PlanCacheStats())
		if grew > heapMiB {
			t.Errorf("%s flood: heap grew %.1f MiB over %d requests, want under %d MiB", fl.name, grew, requests, heapMiB)
		}
	}
	if st := eng.PlanCacheStats(); st.Evictions == 0 {
		t.Fatalf("the flood never reached the capacity: %+v", st)
	}
	// Each plan the hot connections need was compiled once, before the
	// floods, and never again: the prepared SELECT; the UDF call and the
	// cursor query in the UDF's body.
	if m := prepared.Session().PlanCacheMisses(); m != 1 {
		t.Errorf("prepared statement: %d plan-cache misses over the floods, want 1", m)
	}
	if m := udf.Session().PlanCacheMisses(); m != 2 {
		t.Errorf("udf call: %d plan-cache misses over the floods, want 2 (the call, the body's cursor query)", m)
	}
}
