package middleware

import (
	"sync"

	"github.com/maliva/maliva/internal/core"
)

// planKey names a query shape at one data version. The version retires
// every pre-flush context at a flush without touching the cache; dropBelow
// reads it to reclaim what the flush orphaned.
type planKey struct {
	version uint64
	sig     string
}

// planEntry is one cached query shape: the ground-truth context (the
// expensive part — BuildContext prices every rewritten query, counting exact
// plans from posting lists and executing the rest) plus the rewriter's
// decision memoized per budget. Both are deterministic functions of the
// query, so caching them never changes a response bit.
type planEntry struct {
	ctx *core.QueryContext

	mu       sync.Mutex
	outcomes map[float64]core.Outcome
}

// maxOutcomesPerEntry caps the per-entry budget→outcome map: budgets are
// client-supplied floats, so without a cap a client sweeping distinct
// budget values against one hot shape would grow the map forever. Real
// frontends use a handful of budgets; beyond the cap decisions are still
// computed, just not memoized.
const maxOutcomesPerEntry = 64

// outcome returns the memoized rewrite decision for a budget, computing it
// via rewrite on first use. The entry lock is NOT held across rewrite —
// otherwise every warm hit on this shape would stall behind one cold
// budget's rewrite (which may itself queue on the server's rewriteMu).
// Two racing requests for the same new budget may both rewrite; outcomes
// are deterministic functions of (ctx, budget), so both compute the same
// value and the first stored one wins.
func (e *planEntry) outcome(budget float64, rewrite func() core.Outcome) core.Outcome {
	e.mu.Lock()
	if out, ok := e.outcomes[budget]; ok {
		e.mu.Unlock()
		return out
	}
	e.mu.Unlock()
	out := rewrite()
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.outcomes[budget]; ok {
		return prev
	}
	if len(e.outcomes) < maxOutcomesPerEntry {
		e.outcomes[budget] = out
	}
	return out
}

// planCache is an LRU of planEntry keyed by planKey and guarded by one
// mutex. Signatures are the canonical SQL of the original query.
type planCache struct {
	mu      sync.Mutex
	entries *lru[planKey, *planEntry]
}

// newPlanCache returns a cache holding at most cap entries; cap <= 0
// disables caching (nil cache: get always builds).
func newPlanCache(cap int) *planCache {
	if cap <= 0 {
		return nil
	}
	return &planCache{entries: newLRU[planKey, *planEntry](cap, nil)}
}

// get returns the entry for key and whether it was already cached, building
// it with build on a miss. The build runs outside the lock, so concurrent
// misses on one key each build; contexts are deterministic functions of the
// key, and the first insert wins — every racer returns that one entry, so
// they share one outcome memo. Build errors (and panics) leave the cache
// untouched: the next request retries.
func (c *planCache) get(key planKey, build func() (*core.QueryContext, error)) (*planEntry, bool, error) {
	if c != nil {
		c.mu.Lock()
		e, ok := c.entries.get(key)
		c.mu.Unlock()
		if ok {
			return e, true, nil
		}
	}
	ctx, err := build()
	if err != nil {
		return nil, false, err
	}
	entry := &planEntry{ctx: ctx, outcomes: make(map[float64]core.Outcome)}
	if c == nil {
		return entry, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.get(key); ok { // a racing build inserted first
		return e, false, nil
	}
	c.entries.put(key, entry)
	return entry, false, nil
}

// dropBelow removes every entry keyed at a data version older than version
// (memory reclamation after a flush: such keys are never asked for again).
// Builds still running cannot insert an older key afterwards — they hold the
// data read lock, so none can be older than the flush that calls this.
func (c *planCache) dropBelow(version uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.removeFunc(func(k planKey, _ *planEntry) bool { return k.version < version })
}

// len reports the number of cached entries (for tests).
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}
