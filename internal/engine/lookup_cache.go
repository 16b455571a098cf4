package engine

import (
	"sync"
	"sync/atomic"
)

// LookupCache memoizes index lookups across executions of related queries.
// Maliva's offline experience collection runs every rewritten query RQ_i of
// the same original query: the |Ω| executions keep scanning the same index
// for the same predicate. Keying on (table, predicate) lets those executions
// share one posting-list scan.
//
// An entry is the lookup's Posting, in whichever encoding the lookup chose:
// a dense one costs one bit per table row, a sparse one four bytes per match.
// Cached postings are shared and never mutated — the executor and Counter
// only read them, and Index.Lookup already returns fresh (btree/rtree) or
// shared-immutable (inverted) storage, so caching preserves results exactly.
// The reported entries-touched count is also cached, keeping ExecStats (and
// therefore virtual time) bit-identical to uncached execution.
//
// The cache deliberately sits only on the materializing lookup path: a hit
// must hand out a stable posting, so cached scans keep using Index.Lookup.
// The zero-allocation visitor path (BTree.Visit, which join probes walk)
// never produces a posting to share and therefore bypasses the cache.
//
// A LookupCache is safe for concurrent use.
//
// Lifetime: entries stay valid as long as the underlying table data and
// indexes are immutable, so a cache may outlive any single query — a serving
// layer can hold one cache for its whole lifetime over a loaded dataset.
// After mutating or reloading a table, call InvalidateTable (the analogue of
// DB.InvalidateStats) or Reset.
type LookupCache struct {
	mu sync.RWMutex
	m  map[lookupKey]lookupVal
	// cap bounds the number of memoized entries; 0 means unbounded (the
	// offline pipelines run bounded workloads). When full, lookups still
	// work but stop inserting — long-lived server-scope caches stay within
	// a fixed memory budget even under unbounded distinct request shapes.
	cap int
	// next, when non-nil, serves this cache's misses (see NewLookupMemo);
	// nil means a miss scans the index.
	next *LookupCache

	// hits/misses count served lookups for effectiveness metrics (e.g. the
	// lab-scope shared-cache benchmark). They never influence results.
	hits   atomic.Int64
	misses atomic.Int64
}

// lookupKey identifies one index scan. Predicate is a comparable value type
// (strings, scalars, and a Rect), so it can key the map directly. Sample
// tables have distinct names, so table name disambiguates base vs sample.
// ver is the table's data version at scan time: after an ingest flush bumps
// the version, every pre-flush entry becomes unreachable, so a stale posting
// list can never satisfy a post-flush lookup (InvalidateTable then reclaims
// the dead entries' memory).
type lookupKey struct {
	table string
	ver   uint64
	pred  Predicate
}

type lookupVal struct {
	rows    Posting
	entries int
}

// NewLookupCache returns an empty unbounded cache.
func NewLookupCache() *LookupCache {
	return &LookupCache{m: make(map[lookupKey]lookupVal)}
}

// NewLookupCacheWithCap returns a cache memoizing at most maxEntries
// lookups; maxEntries <= 0 means unbounded.
func NewLookupCacheWithCap(maxEntries int) *LookupCache {
	c := NewLookupCache()
	c.cap = maxEntries
	return c
}

// NewLookupMemo returns an unbounded cache scoped to one bounded unit of
// work — one context build: the baseline run, every option run and the
// true-selectivity pass of a single query — layered in front of shared. A
// lookup the memo has not seen falls through to shared (nil: straight to the
// index), which counts it and keeps it under its own cap and freeze policy,
// and is then remembered here, so the unit scans each predicate once whether
// or not shared has room. Repeats never reach shared: its Stats() describe
// cross-unit sharing only.
func NewLookupMemo(shared *LookupCache) *LookupCache {
	c := NewLookupCache()
	c.next = shared
	return c
}

// lookup serves ix.Lookup(p) through the cache. A nil receiver falls
// through to the direct lookup, so call sites need no cache-presence branch.
func (c *LookupCache) lookup(t *Table, ix *Index, p Predicate) (Posting, int, error) {
	if c == nil {
		return ix.Lookup(p)
	}
	key := lookupKey{table: t.Name, ver: t.DataVersion(), pred: p}
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v.rows, v.entries, nil
	}
	c.misses.Add(1)
	rows, entries, err := c.next.lookup(t, ix, p)
	if err != nil {
		return Posting{}, 0, err
	}
	c.mu.Lock()
	// A racing goroutine may have filled the slot; keep the first value so
	// every consumer aliases one canonical posting.
	if w, ok := c.m[key]; ok {
		rows, entries = w.rows, w.entries
	} else if c.cap <= 0 || len(c.m) < c.cap {
		c.m[key] = lookupVal{rows: rows, entries: entries}
	}
	c.mu.Unlock()
	return rows, entries, nil
}

// Stats returns how many lookups the cache served from memory vs had to
// scan. Counters survive Reset/InvalidateTable (they describe the cache's
// lifetime, not its current contents).
func (c *LookupCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of memoized lookups (for tests and metrics).
func (c *LookupCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Reset drops every memoized lookup. Concurrent readers that already hold a
// cached posting keep a consistent view; new lookups re-scan the indexes.
func (c *LookupCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[lookupKey]lookupVal)
}

// InvalidateTable drops the memoized lookups of one table, keeping entries
// for the rest of the database. Call it after the table's data or indexes
// change; sample tables are separate entries under their own names.
func (c *LookupCache) InvalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.m {
		if k.table == table {
			delete(c.m, k)
		}
	}
}
