package middleware

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"github.com/maliva/maliva/internal/core"
)

// planCacheKey is the plan-cache key of a query shape at one data version:
// "v<version>\x00<class><signature>". The version prefix retires every
// pre-flush context at a flush without touching the cache; planKeyVersion
// reads it back so the flush hook can reclaim what the prefix orphaned.
func planCacheKey(version uint64, class, sig string) string {
	return "v" + strconv.FormatUint(version, 10) + "\x00" + class + sig
}

// planKeyVersion is planCacheKey's inverse for the version field; ok is
// false for a key planCacheKey did not build.
func planKeyVersion(key string) (version uint64, ok bool) {
	rest, found := strings.CutPrefix(key, "v")
	if !found {
		return 0, false
	}
	num, _, found := strings.Cut(rest, "\x00")
	if !found {
		return 0, false
	}
	version, err := strconv.ParseUint(num, 10, 64)
	return version, err == nil
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

// planCache is a signature-keyed LRU of planEntry guarded by one mutex.
// Keys are the canonical SQL of the original query.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // of *planPair
	lru     *list.List               // front = most recent
}

type planPair struct {
	key   string
	entry *planEntry
}

// newPlanCache returns a cache holding at most cap entries; cap <= 0
// disables caching (nil cache: get always builds).
func newPlanCache(cap int) *planCache {
	if cap <= 0 {
		return nil
	}
	return &planCache{
		cap:     cap,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// get returns the entry for key and whether it was already cached, building
// it with build on a miss. The build runs outside the lock, so concurrent
// misses on one key each build; contexts are deterministic functions of the
// key, and the first insert wins — every racer returns that one entry, so
// they share one outcome memo. Build errors (and panics) leave the cache
// untouched: the next request retries.
func (c *planCache) get(key string, build func() (*core.QueryContext, error)) (*planEntry, bool, error) {
	if c != nil {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			return el.Value.(*planPair).entry, true, nil
		}
		c.mu.Unlock()
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
	if el, ok := c.entries[key]; ok { // a racing build inserted first
		c.lru.MoveToFront(el)
		return el.Value.(*planPair).entry, false, nil
	}
	c.entries[key] = c.lru.PushFront(&planPair{key: key, entry: entry})
	for c.lru.Len() > c.cap {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*planPair).key)
	}
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
	for key, el := range c.entries {
		if v, ok := planKeyVersion(key); ok && v < version {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
}

// len reports the number of cached entries (for tests).
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
