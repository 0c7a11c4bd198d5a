package engine

import (
	"aggify/internal/ast"
	"aggify/internal/exec"
	"aggify/internal/plan"
	"aggify/internal/storage"
)

// Plan-cache tuning; DESIGN.md ("Plan cache") has the design and the
// measurements PlanCacheCap rests on.
const (
	// PlanCacheCap bounds the plan store, in entries of every kind; beyond
	// it the least recently used entry is evicted.
	PlanCacheCap = 1024
	// PlanStaleThreshold is the floor on how far a table's stats version
	// may drift past the version a cached plan was costed against before
	// the cache recompiles the plan; above 640 rows the table's own drift
	// rule (storage.Table.Drifted, a tenth of its rows) is the larger bar.
	// Large enough that steady single-row DML on a small table does not
	// replan per statement.
	PlanStaleThreshold = 64
)

// cacheKey names one entry of the plan store. id is either an AST node
// pointer (a *ast.Select, an ast.Expr, a routine definition), found without
// allocating by whoever executes that node again, or the exact rendered
// text of a SELECT, shared by every session that sends the same SQL.
// Literals are baked into compiled plans, so (unlike the stat_statements
// fingerprint) the text keeps them. Values compiled under different
// planner options never share an entry.
type cacheKey struct {
	id   any
	opts plan.Options
}

type cacheEntry struct {
	key        cacheKey
	val        any
	prev, next *cacheEntry
}

// planCache is the engine's one compile cache: query plans, scalar
// expressions and compiled routine bodies in one map, threaded on one
// intrusive LRU list (O(1) touch and evict). Engine.planMu guards it.
type planCache struct {
	m map[cacheKey]*cacheEntry
	// lru is the list's sentinel: lru.next is the most recently used entry,
	// lru.prev the least.
	lru cacheEntry
	// gen counts resets, so that a value built across one is not stored.
	gen uint64

	hits, misses, evictions int64
}

// reset empties the cache (and makes the zero value usable).
func (c *planCache) reset() {
	c.m = map[cacheKey]*cacheEntry{}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	c.gen++
}

func (c *planCache) unlink(ent *cacheEntry) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
}

func (c *planCache) pushFront(ent *cacheEntry) {
	ent.prev, ent.next = &c.lru, c.lru.next
	ent.prev.next, ent.next.prev = ent, ent
}

func (c *planCache) remove(ent *cacheEntry) {
	c.unlink(ent)
	delete(c.m, ent.key)
}

// get returns the value stored under key and marks it most recently used.
// An entry that fresh (when non-nil) rejects is dropped, not returned.
func (c *planCache) get(key cacheKey, fresh func(any) bool) (any, bool) {
	ent, ok := c.m[key]
	if !ok {
		return nil, false
	}
	if fresh != nil && !fresh(ent.val) {
		c.remove(ent)
		return nil, false
	}
	if c.lru.next != ent {
		c.unlink(ent)
		c.pushFront(ent)
	}
	return ent.val, true
}

// put stores val under key as the most recently used entry. At capacity
// the least recently used entry makes room, and its struct is reused.
func (c *planCache) put(key cacheKey, val any) {
	ent, ok := c.m[key]
	switch {
	case ok:
		c.unlink(ent)
	case len(c.m) >= PlanCacheCap:
		ent = c.lru.prev
		c.remove(ent)
		c.evictions++
	default:
		ent = &cacheEntry{}
	}
	ent.key, ent.val = key, val
	c.m[key] = ent
	c.pushFront(ent)
}

// cached is the one get-or-build path of the plan store. It returns the
// value under key; failing that the value under (text, key.opts) when text
// is not empty, which it then also files under key; failing that it calls
// build (nil: none), outside the lock, and files the result under both.
// Sessions missing on one key at once each build, and the later store
// wins. A value built across a catalog change is returned but not stored.
func (e *Engine) cached(key cacheKey, text string, fresh func(any) bool, build func() (any, error)) (v any, hit bool, err error) {
	c := &e.cache
	tkey := cacheKey{id: text, opts: key.opts}
	e.planMu.Lock()
	v, hit = c.get(key, fresh)
	if !hit && text != "" {
		if v, hit = c.get(tkey, fresh); hit {
			c.put(key, v)
		}
	}
	if hit {
		c.hits++
	} else if build != nil {
		c.misses++
	}
	gen := c.gen
	e.planMu.Unlock()
	if hit || build == nil {
		return v, hit, nil
	}

	if v, err = build(); err != nil {
		return nil, false, err
	}
	e.planMu.Lock()
	if c.gen == gen {
		c.put(key, v)
		if text != "" {
			c.put(tkey, v)
		}
	}
	e.planMu.Unlock()
	return v, false, nil
}

// PlanQuery compiles q under the catalog, or returns the cached plan.
//
// The node itself is looked up first, before any analysis of q's shape, so
// re-executing a parsed statement stays allocation-free. Only then is the
// text rendered, so that re-parsed arrivals of the same SQL (each TCP
// request parses afresh) share one plan. Queries touching system views
// never enter the cache: their tables are per-statement snapshots, and a
// cached plan would freeze the first one forever. Queries referencing temp
// tables or table variables are cached by node only: their text resolves
// to different tables in another session, while a node belongs to one.
func (s *Session) PlanQuery(q *ast.Select, temp func(string) (*storage.Table, bool)) (*plan.Plan, error) {
	key := cacheKey{id: q, opts: s.Opts}
	v, hit, err := s.Eng.cached(key, "", planFresh, nil)
	if !hit {
		if selectRefsSystemTable(q) {
			return plan.Compile(s.Catalog(temp), s.Opts, q)
		}
		text := ""
		if !selectRefsTempTable(q) {
			text = q.String()
		}
		v, hit, err = s.Eng.cached(key, text, planFresh, func() (any, error) {
			return plan.Compile(s.Catalog(temp), s.Opts, q)
		})
	}
	// The statement recorder diffs these into aggify_stat_statements.
	if hit {
		s.planCacheHits.Add(1)
	} else {
		s.planCacheMisses.Add(1)
	}
	p, _ := v.(*plan.Plan)
	return p, err
}

// planFresh reports whether no table the plan was costed against has,
// since compile, both drifted PlanStaleThreshold or more stats versions and
// Drifted by its own rule — the one that rebuilds its statistics.
func planFresh(v any) bool {
	for _, st := range v.(*plan.Plan).Stamps {
		if st.Table.StatsVersion()-st.StatsVersion >= PlanStaleThreshold && st.Table.Drifted(st.StatsVersion) {
			return false
		}
	}
	return true
}

// CachedScalar compiles an expression (cached by AST node identity) for
// evaluation outside a table context: procedure statements, variable
// initializers, and aggregate bodies.
func (e *Engine) CachedScalar(cat plan.Catalog, opts plan.Options, expr ast.Expr) (exec.Scalar, error) {
	v, _, err := e.cached(cacheKey{id: expr, opts: opts}, "", nil, func() (any, error) {
		return plan.CompileScalar(cat, opts, expr)
	})
	sc, _ := v.(exec.Scalar)
	return sc, err
}

// CachedRoutine returns what build made of a routine definition node
// under the given planner options, which plan the queries in its body. The
// value is opaque to the engine: the interpreter owns it, including the
// typed-nil values that mark bodies it will not compile again.
func (e *Engine) CachedRoutine(def any, opts plan.Options, build func() any) any {
	v, _, _ := e.cached(cacheKey{id: def, opts: opts}, "", nil, func() (any, error) { return build(), nil })
	return v
}

// InvalidatePlans empties the plan store. Every catalog mutator calls it,
// and nothing else needs to: a value depends on its key and the catalog.
func (e *Engine) InvalidatePlans() {
	e.planMu.Lock()
	e.cache.reset()
	e.planMu.Unlock()
}

// PlanCacheLen returns the number of text-keyed cached plans (tests).
func (e *Engine) PlanCacheLen() (n int) {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	for k := range e.cache.m {
		if _, isText := k.id.(string); isText {
			n++
		}
	}
	return n
}

// PlanCacheStats is a snapshot of the plan store: entries of every kind,
// and cumulative lookups answered, values built and entries evicted.
type PlanCacheStats struct {
	Entries                 int
	Hits, Misses, Evictions int64
}

// PlanCacheStats snapshots the plan store.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	c := &e.cache
	return PlanCacheStats{Entries: len(c.m), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
