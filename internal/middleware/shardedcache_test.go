package middleware

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
)

// TestShardedPlanCacheBasics: hits stay hits across shards, capacity is the
// total across shards, and a disabled cache builds every time.
func TestShardedPlanCacheBasics(t *testing.T) {
	c := newShardedPlanCache(64, 8)
	builds := 0
	build := func() (*core.QueryContext, error) { builds++; return dummyCtx(), nil }
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT %d", i)
	}
	for _, k := range keys {
		if _, how, err := c.get(k, build); err != nil || how != planMiss {
			t.Fatalf("first get %q: how=%v err=%v", k, how, err)
		}
	}
	for _, k := range keys {
		if _, how, err := c.get(k, build); err != nil || how != planHit {
			t.Fatalf("second get %q: how=%v err=%v", k, how, err)
		}
	}
	if builds != len(keys) {
		t.Errorf("builds = %d, want %d", builds, len(keys))
	}
	if got := c.len(); got != len(keys) {
		t.Errorf("len = %d, want %d", got, len(keys))
	}

	if disabled := newShardedPlanCache(-1, 8); disabled != nil {
		t.Error("negative capacity should disable the sharded cache")
	} else {
		if _, how, err := disabled.get("k", build); err != nil || how != planMiss {
			t.Errorf("disabled get: how=%v err=%v", how, err)
		}
	}
}

// TestShardedPlanCacheCapacity: total entries stay bounded by ~capacity even
// when keys spread over every shard.
func TestShardedPlanCacheCapacity(t *testing.T) {
	const capacity = 32
	c := newShardedPlanCache(capacity, 8)
	build := func() (*core.QueryContext, error) { return dummyCtx(), nil }
	for i := 0; i < 10*capacity; i++ {
		if _, _, err := c.get(fmt.Sprintf("key-%d", i), build); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.len(); got > capacity {
		t.Errorf("len = %d, want <= %d (per-shard LRUs must bound the total)", got, capacity)
	}
}

// TestShardedResultCacheBasics: get/put round-trips, distinct keys stay
// distinct across shards, TTL still applies per shard.
func TestShardedResultCacheBasics(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := newShardedResultCache(64, 8, 10*time.Second, clock)
	keys := make([]ResultKey, 24)
	resps := make([]*Response, len(keys))
	for i := range keys {
		keys[i] = ResultKey{SQL: fmt.Sprintf("SELECT %d", i), Kind: VizHeatmap, GridW: 8, GridH: 8, Budget: float64(i)}
		resps[i] = &Response{GridW: i}
		c.Put(keys[i], resps[i])
	}
	for i, k := range keys {
		if got := c.Get(k); got != resps[i] {
			t.Fatalf("key %d: got %v, want %v", i, got, resps[i])
		}
	}
	now = now.Add(11 * time.Second)
	for i, k := range keys {
		if got := c.Get(k); got != nil {
			t.Fatalf("key %d served after TTL", i)
		}
	}
	if disabled := newShardedResultCache(0, 8, time.Minute, nil); disabled != nil {
		t.Error("zero capacity should disable the sharded result cache")
	}
}

// TestShardCounts: the split never exceeds total capacity and never loses it.
func TestShardCounts(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, wantShards, wantPer int }{
		{512, 16, 16, 32},
		{10, 16, 10, 1}, // fewer entries than shards
		{1, 16, 1, 1},
		{100, 3, 3, 34},
	} {
		gotShards, gotPer := shardCounts(tc.capacity, tc.shards)
		if gotShards != tc.wantShards || gotPer != tc.wantPer {
			t.Errorf("shardCounts(%d, %d) = (%d, %d), want (%d, %d)",
				tc.capacity, tc.shards, gotShards, gotPer, tc.wantShards, tc.wantPer)
		}
	}
}

// benchCacheKeys builds a key set large enough that contention, not misses,
// dominates.
func benchCacheKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT * FROM tweets WHERE shape = %d;", i)
	}
	return keys
}

// BenchmarkPlanCacheContention compares the single-lock plan cache against
// the sharded one under parallel hit traffic — the regime a multi-dataset
// gateway at high core counts lives in.
func BenchmarkPlanCacheContention(b *testing.B) {
	keys := benchCacheKeys(256)
	build := func() (*core.QueryContext, error) { return dummyCtx(), nil }

	run := func(b *testing.B, get func(string) error) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := get(keys[i%len(keys)]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	}

	b.Run("single-lock", func(b *testing.B) {
		c := newPlanCache(1024)
		for _, k := range keys {
			_, _, _ = c.get(k, build)
		}
		run(b, func(k string) error { _, _, err := c.get(k, build); return err })
	})
	b.Run("sharded", func(b *testing.B) {
		c := newShardedPlanCache(1024, defaultCacheShards)
		for _, k := range keys {
			_, _, _ = c.get(k, build)
		}
		run(b, func(k string) error { _, _, err := c.get(k, build); return err })
	})
}

// BenchmarkResultCacheContention is the same comparison for the result
// cache, mixing gets with the occasional put the way warm serving does.
func BenchmarkResultCacheContention(b *testing.B) {
	keys := make([]ResultKey, 256)
	for i := range keys {
		keys[i] = ResultKey{SQL: fmt.Sprintf("SELECT %d;", i), Kind: VizHeatmap, GridW: 32, GridH: 16, Budget: 500}
	}
	resp := &Response{Kind: VizHeatmap}

	run := func(b *testing.B, get func(ResultKey) *Response, put func(ResultKey, *Response)) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keys[i%len(keys)]
				if get(k) == nil {
					put(k, resp)
				}
				i++
			}
		})
	}

	b.Run("single-lock", func(b *testing.B) {
		c := newResultCache(1024, time.Minute, nil)
		for _, k := range keys {
			c.put(k, resp)
		}
		run(b, c.get, c.put)
	})
	b.Run("sharded", func(b *testing.B) {
		c := newShardedResultCache(1024, defaultCacheShards, time.Minute, nil)
		for _, k := range keys {
			c.Put(k, resp)
		}
		run(b, c.Get, c.Put)
	})
}

// TestShardedCacheConcurrentDeterminism: hammering one sharded cache set
// from many goroutines yields exactly one entry per key (single-flight per
// shard) — run with -race.
func TestShardedCacheConcurrentDeterminism(t *testing.T) {
	c := newShardedPlanCache(256, 8)
	keys := benchCacheKeys(32)
	entries := make([]sync.Map, len(keys))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, k := range keys {
				e, _, err := c.get(k, func() (*core.QueryContext, error) { return dummyCtx(), nil })
				if err != nil {
					t.Error(err)
					return
				}
				entries[i].Store(e, true)
			}
		}(g)
	}
	wg.Wait()
	for i := range entries {
		n := 0
		entries[i].Range(func(any, any) bool { n++; return true })
		if n != 1 {
			t.Errorf("key %d produced %d distinct entries, want 1", i, n)
		}
	}
}
