package middleware

import (
	"container/list"
	"math"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/engine"
)

// ResultKey identifies one binned visualization result: the rewritten SQL
// that produced it, the visualization kind and grid, the binning region,
// and the effective budget (the trace embeds budget-dependent fields, so
// responses are only shared between requests with the same budget).
//
// The key is exported (with JSON tags) because it is also the unit of
// cross-replica result sharing: internal/cluster routes requests and
// addresses peer-cache fetches by ResultKey, so every distinct result has
// exactly one owning replica. Every field is a deterministic function of the
// request and the dataset, never of which replica computed it.
type ResultKey struct {
	SQL    string      `json:"sql"`
	Kind   VizKind     `json:"kind"`
	GridW  int         `json:"grid_w"`
	GridH  int         `json:"grid_h"`
	Region engine.Rect `json:"region"`
	Budget float64     `json:"budget"`
	// DataVersion is the dataset's data version the result was (or would be)
	// computed at. Folding it into the key means an ingest flush atomically
	// invalidates every cached result — locally and across the peer wire
	// format — without touching cache internals: pre-flush entries simply
	// stop being addressed. See docs/ARCHITECTURE.md, "Data versions &
	// staleness".
	DataVersion uint64 `json:"data_version"`
}

// Hash places a result key on internal/cluster's replica hash ring: the
// rewritten SQL dominates, the remaining fields disambiguate
// grid/kind/region/budget/version variants that share SQL text.
func (k ResultKey) Hash() uint64 {
	h := fnv64(k.SQL)
	h = fnvMix(h, fnv64(string(k.Kind)))
	// Mask both grid fields to 32 bits so their bit ranges cannot overlap.
	h = fnvMix(h, uint64(uint32(k.GridW))<<32|uint64(uint32(k.GridH)))
	h = fnvMix(h, math.Float64bits(k.Region.MinLon))
	h = fnvMix(h, math.Float64bits(k.Region.MinLat))
	h = fnvMix(h, math.Float64bits(k.Region.MaxLon))
	h = fnvMix(h, math.Float64bits(k.Region.MaxLat))
	h = fnvMix(h, math.Float64bits(k.Budget))
	return fnvMix(h, k.DataVersion)
}

// fnv64 is 64-bit FNV-1a of a string.
func fnv64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fnvMix folds one value into a running hash (FNV-style xor-multiply).
func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// ResultCache is the pluggable result-cache surface the Server executes
// against. The built-in implementation is the TTL'd LRU resultCache; a cluster
// deployment wraps it (per dataset, via GatewayConfig.WrapResultCache) with
// a peer-aware cache that consults the key's owning replica on a miss.
//
// Contract: Get returns nil on a miss; a non-nil Response must be treated as
// immutable by the caller and must be bit-identical to what the cold compute
// path would produce for the same key. Put must tolerate duplicate and
// concurrent inserts of the same key: concurrent identical requests each
// compute and store their answer, and values for equal keys are identical by
// construction, so last-write-wins is safe. Implementations must be safe for
// concurrent use.
type ResultCache interface {
	// Get returns the cached response for key, or nil.
	Get(key ResultKey) *Response
	// Put stores a response under key.
	Put(key ResultKey, resp *Response)
	// Len reports how many responses are cached (diagnostics and tests).
	Len() int
}

// resultEntry is a cached response with its expiry.
type resultEntry struct {
	key     ResultKey
	resp    *Response
	expires time.Time
}

// resultCache is a TTL'd LRU of finished responses, tqdbproxy-style: the
// highly-overlapping queries of a pan/zoom session keep producing identical
// (rewritten SQL, grid) pairs, so the whole execute+bin step is skipped.
// Cached *Response values are shared — callers must treat them as immutable
// (the serving layer only encodes them). It implements ResultCache; a nil
// *resultCache is the disabled cache (Get misses, Put drops).
type resultCache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	now     func() time.Time
	entries map[ResultKey]*list.Element // of *resultEntry
	lru     *list.List
}

// newResultCache builds a cache of at most cap responses living ttl each.
// cap <= 0 disables caching (nil cache: Get misses, Put drops).
func newResultCache(cap int, ttl time.Duration, now func() time.Time) *resultCache {
	if cap <= 0 {
		return nil
	}
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &resultCache{
		cap:     cap,
		ttl:     ttl,
		now:     now,
		entries: make(map[ResultKey]*list.Element),
		lru:     list.New(),
	}
}

// Get implements ResultCache. Expired entries are dropped lazily on access.
func (c *resultCache) Get(key ResultKey) *Response {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*resultEntry)
	if c.now().After(e.expires) {
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil
	}
	c.lru.MoveToFront(el)
	return e.resp
}

// Put implements ResultCache: it stores a response, refreshing the TTL if the
// key already exists and evicting the least-recently-used entries beyond
// capacity.
func (c *resultCache) Put(key ResultKey, resp *Response) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	expires := c.now().Add(c.ttl)
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*resultEntry)
		e.resp, e.expires = resp, expires
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&resultEntry{key: key, resp: resp, expires: expires})
	c.entries[key] = el
	for c.lru.Len() > c.cap {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*resultEntry).key)
	}
	// Sweep expired entries from the LRU tail. Without this, a churning key
	// population (e.g. version-keyed entries after ingest flushes) pins
	// expired *Response values until capacity eviction, since Get only drops
	// the exact key it was asked for. Entries are TTL-ordered from the tail
	// up to MoveToFront perturbation, so stopping at the first live entry
	// bounds the sweep while reclaiming the common ghost pile-up.
	now := c.now()
	for {
		old := c.lru.Back()
		if old == nil {
			break
		}
		e := old.Value.(*resultEntry)
		if !now.After(e.expires) {
			break
		}
		c.lru.Remove(old)
		delete(c.entries, e.key)
	}
}

// dropBelow removes every response computed at a data version older than
// version, live or expired. It is deliberately not part of the ResultCache
// interface: only this replica's own memory is reclaimed.
func (c *resultCache) dropBelow(version uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.DataVersion < version {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
	}
}

// Len implements ResultCache: the number of live (non-expired) cached
// responses.
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if !now.After(el.Value.(*resultEntry).expires) {
			n++
		}
	}
	return n
}
