package engine

import (
	"fmt"
	"sync"
	"testing"

	"aggify/internal/ast"
	"aggify/internal/parser"
	"aggify/internal/plan"
	"aggify/internal/sqltypes"
	"aggify/internal/storage"
)

// TestPlanCacheLRU drives the store's primitives: the capacity bound, least
// recently used first out, and a touch on get.
func TestPlanCacheLRU(t *testing.T) {
	var c planCache
	c.reset()
	nodes := make([]*ast.Select, PlanCacheCap)
	for i := range nodes {
		nodes[i] = &ast.Select{}
		c.put(cacheKey{id: nodes[i]}, i)
	}
	c.put(cacheKey{id: "select 1"}, -1) // evicts nodes[0]
	if len(c.m) != PlanCacheCap || c.evictions != 1 {
		t.Fatalf("at capacity: %d entries, %d evictions", len(c.m), c.evictions)
	}
	if _, ok := c.get(cacheKey{id: nodes[0]}, nil); ok {
		t.Fatal("the least recently used entry survived an insert at capacity")
	}
	if v, ok := c.get(cacheKey{id: nodes[1]}, nil); !ok || v.(int) != 1 {
		t.Fatalf("nodes[1]: %v, %v", v, ok)
	}
	c.put(cacheKey{id: &ast.Select{}}, 0) // nodes[1] was touched: nodes[2] goes
	if _, ok := c.get(cacheKey{id: nodes[1]}, nil); !ok {
		t.Fatal("get did not mark the entry recently used")
	}
	if _, ok := c.get(cacheKey{id: nodes[2]}, nil); ok {
		t.Fatal("eviction skipped the least recently used entry")
	}
	// Same id, other options: another entry.
	if _, ok := c.get(cacheKey{id: "select 1", opts: plan.Options{DisableRules: plan.RuleChooseAccessPath}}, nil); ok {
		t.Fatal("options are not part of the key")
	}
	// A stale entry is dropped by the lookup that finds it.
	if _, ok := c.get(cacheKey{id: "select 1"}, func(any) bool { return false }); ok || len(c.m) != PlanCacheCap-1 {
		t.Fatalf("stale entry served (%v) or kept (%d entries)", ok, len(c.m))
	}
	c.reset()
	if len(c.m) != 0 || c.lru.next != &c.lru || c.lru.prev != &c.lru {
		t.Fatal("reset left entries behind")
	}
}

// TestPlanCacheSkipsValueBuiltAcrossReset: a value compiled while a catalog
// mutator reset the store may describe the old catalog. The caller that
// built it gets it; the store does not.
func TestPlanCacheSkipsValueBuiltAcrossReset(t *testing.T) {
	e := New()
	key := cacheKey{id: &ast.Select{}}
	build := func() (any, error) {
		e.InvalidatePlans()
		return 1, nil
	}
	if v, hit, err := e.cached(key, "text", nil, build); v.(int) != 1 || hit || err != nil {
		t.Fatalf("cached = %v, %v, %v", v, hit, err)
	}
	if st := e.PlanCacheStats(); st.Entries != 0 {
		t.Fatalf("a value built across a reset was stored: %+v", st)
	}
}

// TestPlanCacheConcurrentSessions: sessions looking up shared and throw-away
// statements while a catalog mutator resets the store (run with -race). The
// list and the map must still describe the same entries afterwards.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	e := New()
	if _, err := e.CreateTable("t", storage.NewSchema(storage.Col("k", sqltypes.Int))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < 1500; i++ {
				n := i % 7 // shared by every worker
				if i%3 == 0 {
					n = 1000*w + i // seen once
				}
				q := parser.MustParse(fmt.Sprintf("select k from t where k = %d", n))[0].(*ast.QueryStmt).Query
				for r := 0; r < 2; r++ {
					if _, err := s.PlanQuery(q, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			e.InvalidatePlans()
		}
	}()
	wg.Wait()

	c := &e.cache
	listed := 0
	for ent := c.lru.next; ent != &c.lru; ent = ent.next {
		if c.m[ent.key] != ent || ent.next.prev != ent {
			t.Fatal("list and map disagree")
		}
		listed++
	}
	if listed != len(c.m) || listed > PlanCacheCap {
		t.Fatalf("%d listed, %d mapped (capacity %d)", listed, len(c.m), PlanCacheCap)
	}
}

// TestPlanCacheWarmZeroAllocs pins the warm path: finding what was compiled
// for an AST node that is executed again allocates nothing, for a query
// plan and for a scalar expression. (The routine lookup has its own guard
// in package interp.)
func TestPlanCacheWarmZeroAllocs(t *testing.T) {
	e := New()
	if _, err := e.CreateTable("t", storage.NewSchema(storage.Col("k", sqltypes.Int))); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	defer s.Close()
	q := parser.MustParse("select k, 1 + 2 from t where k = 1")[0].(*ast.QueryStmt).Query
	expr := q.Items[1].Expr
	cat := s.Catalog(nil)

	warm := map[string]func(){
		"Session.PlanQuery": func() {
			if _, err := s.PlanQuery(q, nil); err != nil {
				t.Fatal(err)
			}
		},
		"Engine.CachedScalar": func() {
			if _, err := e.CachedScalar(cat, s.Opts, expr); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, lookup := range warm {
		lookup()
		misses := e.PlanCacheStats().Misses
		if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
			t.Errorf("%s: warm lookup allocates %v times, want 0", name, allocs)
		}
		if m := e.PlanCacheStats().Misses; m != misses {
			t.Errorf("%s: warm lookups missed %d times", name, m-misses)
		}
	}
}
