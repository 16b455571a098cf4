package middleware

import (
	"math"
	"sync"

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
// against. The built-in implementation is the LRU resultCache; a cluster
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

// resultCache is an LRU of finished responses, tqdbproxy-style: the
// highly-overlapping queries of a pan/zoom session keep producing identical
// (rewritten SQL, grid) pairs, so the whole execute+bin step is skipped.
// Entries carry no expiry: every key pins its data version, so a cached
// response stays exact until LRU eviction or the flush hook's dropBelow
// takes it out. Cached *Response values are shared — callers must treat
// them as immutable (the serving layer only encodes them, and a hit keeps
// that encoding on the response: see Response.WriteJSON). It implements
// ResultCache; a nil *resultCache is the disabled cache (Get misses, Put
// drops).
type resultCache struct {
	mu      sync.Mutex
	entries *lru[ResultKey, *Response]
}

// newResultCache builds a cache of at most cap responses. cap <= 0 disables
// caching (nil cache: Get misses, Put drops).
func newResultCache(cap int) *resultCache {
	if cap <= 0 {
		return nil
	}
	return &resultCache{entries: newLRU[ResultKey, *Response](cap, nil)}
}

// Get implements ResultCache.
func (c *resultCache) Get(key ResultKey) *Response {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, _ := c.entries.get(key)
	return resp
}

// Put implements ResultCache: it stores a response, replacing any response
// already under key (last write wins), and evicts the least-recently-used
// entries beyond capacity.
func (c *resultCache) Put(key ResultKey, resp *Response) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.put(key, resp)
}

// dropBelow removes every response computed at a data version older than
// version. It is deliberately not part of the ResultCache interface: only
// this replica's own memory is reclaimed.
func (c *resultCache) dropBelow(version uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.removeFunc(func(k ResultKey, _ *Response) bool { return k.DataVersion < version })
}

// Len implements ResultCache: the number of cached responses.
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}
