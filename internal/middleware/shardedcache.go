package middleware

import (
	"time"

	"github.com/maliva/maliva/internal/core"
)

// defaultCacheShards splits each server's plan and result caches into this
// many independently-locked shards selected by key hash, so concurrent
// traffic (especially a gateway's cross-dataset mix) doesn't serialize on
// two mutexes. 16 shards keep lock hold times negligible, while the
// per-shard LRUs stay large enough to behave like one global LRU for skewed
// traffic. Capacity is the total across shards.
const defaultCacheShards = 16

// fnv64 hashes a string key to its shard.
func fnv64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mixShard folds one value into a running hash (FNV-style multiply-xor).
func mixShard(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// shardCounts resolves the (shards, per-shard capacity) split for a total
// capacity: capacity is divided evenly, rounding up, and the shard count
// never exceeds the capacity so tiny caches don't degenerate into
// one-entry shards beyond their total budget.
func shardCounts(capacity, shards int) (int, int) {
	if shards > capacity {
		shards = capacity
	}
	per := (capacity + shards - 1) / shards
	return shards, per
}

// shardedPlanCache is the plan cache the Server actually uses: N
// independently-locked planCache shards selected by key hash, so
// cross-dataset gateway traffic (and high-core single-dataset traffic)
// doesn't serialize on one mutex. Single-flight coalescing is per shard,
// which is exactly per key.
type shardedPlanCache struct {
	shards []*planCache
}

// newShardedPlanCache builds a sharded cache with ~capacity total entries.
// capacity <= 0 disables caching (nil cache: get always builds), matching
// planCache semantics.
func newShardedPlanCache(capacity, shards int) *shardedPlanCache {
	if capacity <= 0 {
		return nil
	}
	n, per := shardCounts(capacity, shards)
	c := &shardedPlanCache{shards: make([]*planCache, n)}
	for i := range c.shards {
		c.shards[i] = newPlanCache(per)
	}
	return c
}

func (c *shardedPlanCache) get(key string, build func() (*core.QueryContext, error)) (*planEntry, planResult, error) {
	if c == nil {
		return (*planCache)(nil).get(key, build)
	}
	return c.shards[fnv64(key)%uint64(len(c.shards))].get(key, build)
}

// dropBelow reclaims entries older than version, one shard lock at a time.
func (c *shardedPlanCache) dropBelow(version uint64) {
	if c == nil {
		return
	}
	for _, s := range c.shards {
		s.dropBelow(version)
	}
}

// len sums the shard sizes (for tests).
func (c *shardedPlanCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}

// shardedResultCache shards the TTL'd response cache the same way. It is
// the built-in ResultCache implementation; a nil *shardedResultCache is the
// disabled cache (Get misses, Put drops) and still satisfies the interface.
type shardedResultCache struct {
	shards []*resultCache
}

// newShardedResultCache builds a sharded cache with ~capacity total
// responses. capacity <= 0 disables caching.
func newShardedResultCache(capacity, shards int, ttl time.Duration, now func() time.Time) *shardedResultCache {
	if capacity <= 0 {
		return nil
	}
	n, per := shardCounts(capacity, shards)
	c := &shardedResultCache{shards: make([]*resultCache, n)}
	for i := range c.shards {
		c.shards[i] = newResultCache(per, ttl, now)
	}
	return c
}

func (c *shardedResultCache) shard(key ResultKey) *resultCache {
	return c.shards[key.Hash()%uint64(len(c.shards))]
}

// Get implements ResultCache.
func (c *shardedResultCache) Get(key ResultKey) *Response {
	if c == nil {
		return nil
	}
	return c.shard(key).get(key)
}

// Put implements ResultCache.
func (c *shardedResultCache) Put(key ResultKey, resp *Response) {
	if c == nil {
		return
	}
	c.shard(key).put(key, resp)
}

// dropBelow reclaims responses computed at a data version older than
// version, one shard lock at a time. It is deliberately not part of the
// ResultCache interface: only this replica's own memory is reclaimed.
func (c *shardedResultCache) dropBelow(version uint64) {
	if c == nil {
		return
	}
	for _, s := range c.shards {
		s.dropBelow(version)
	}
}

// Len sums the shard sizes.
func (c *shardedResultCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}
