package middleware

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
)

func dummyCtx() *core.QueryContext { return &core.QueryContext{} }

// TestPlanCacheLRU: the cache holds exactly cap entries and evicts the
// least recently used.
func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2)
	builds := 0
	build := func() (*core.QueryContext, error) { builds++; return dummyCtx(), nil }

	for _, key := range []string{"a", "b", "a", "c"} { // c evicts b
		if _, _, err := c.get(key, build); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 3 {
		t.Errorf("builds = %d, want 3 (a, b, c)", builds)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// a was refreshed, so it's still cached; b was evicted.
	if _, hit, _ := c.get("a", build); !hit {
		t.Error("a: miss, want hit")
	}
	if _, hit, _ := c.get("b", build); hit {
		t.Error("b: hit, want miss (evicted)")
	}

	// The capacity is exact: many distinct keys fill it and never exceed it.
	const capacity = 37
	c = newPlanCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		if _, _, err := c.get(fmt.Sprintf("key-%d", i), build); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.len(); got != capacity {
		t.Errorf("len = %d after %d distinct keys, want exactly %d", got, 10*capacity, capacity)
	}
}

// TestPlanCacheRacingBuildsShareEntry: concurrent misses on one key may each
// build, but the first insert wins — every racer returns that one entry, so
// they share one outcome memo, and the cache holds one entry.
func TestPlanCacheRacingBuildsShareEntry(t *testing.T) {
	c := newPlanCache(8)
	const n = 8
	var entered sync.WaitGroup
	entered.Add(n)
	gate := make(chan struct{})
	var builds atomic.Int32
	build := func() (*core.QueryContext, error) {
		builds.Add(1)
		entered.Done()
		<-gate
		return dummyCtx(), nil
	}

	entries := make([]*planEntry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit, err := c.get("k", build)
			if err != nil || hit {
				t.Errorf("racer %d: hit=%v err=%v, want a miss", i, hit, err)
				return
			}
			entries[i] = e
		}(i)
	}
	entered.Wait() // all n are inside build: nobody has inserted yet
	close(gate)
	wg.Wait()

	if got := builds.Load(); got != n {
		t.Errorf("build ran %d times, want %d (no coalescing)", got, n)
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("racer %d got a different entry", i)
		}
	}
	if got := c.len(); got != 1 {
		t.Errorf("len = %d, want 1", got)
	}
	if e, hit, _ := c.get("k", build); !hit || e != entries[0] {
		t.Errorf("later get: hit=%v, same entry=%v", hit, e == entries[0])
	}
}

// TestPlanCacheConcurrentDeterminism: hammering one plan cache from many
// goroutines yields exactly one entry per key — run with -race.
func TestPlanCacheConcurrentDeterminism(t *testing.T) {
	c := newPlanCache(256)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT * FROM tweets WHERE shape = %d;", i)
	}
	entries := make([]sync.Map, len(keys))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, k := range keys {
				e, _, err := c.get(k, func() (*core.QueryContext, error) { return dummyCtx(), nil })
				if err != nil {
					t.Error(err)
					return
				}
				entries[i].Store(e, true)
			}
		}()
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

// TestPlanCacheBuildErrorNotCached: a failed build is retried by the next
// request instead of caching the error.
func TestPlanCacheBuildErrorNotCached(t *testing.T) {
	c := newPlanCache(4)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.get("k", func() (*core.QueryContext, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.len() != 0 {
		t.Fatalf("error was cached: len = %d", c.len())
	}
	if _, hit, err := c.get("k", func() (*core.QueryContext, error) { calls++; return dummyCtx(), nil }); err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

// TestPlanCacheBuildPanicUnwedges: a panicking build must not wedge the
// key — the panic propagates and the next request retries.
func TestPlanCacheBuildPanicUnwedges(t *testing.T) {
	c := newPlanCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_, _, _ = c.get("k", func() (*core.QueryContext, error) { panic("boom") })
	}()
	// The key must be retryable: nothing was cached and nothing blocks.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, hit, err := c.get("k", func() (*core.QueryContext, error) { return dummyCtx(), nil }); err != nil || hit {
			t.Errorf("retry after panic: hit=%v err=%v", hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("key wedged after build panic")
	}
}

// TestPlanEntryOutcomeCap: distinct client budgets stop being memoized at
// the cap instead of growing the entry forever; decisions stay correct.
func TestPlanEntryOutcomeCap(t *testing.T) {
	e := &planEntry{ctx: dummyCtx(), outcomes: make(map[float64]core.Outcome)}
	calls := 0
	for i := 0; i < maxOutcomesPerEntry+10; i++ {
		out := e.outcome(float64(i), func() core.Outcome { calls++; return core.Outcome{Option: i} })
		if out.Option != i {
			t.Fatalf("budget %d: wrong outcome %d", i, out.Option)
		}
	}
	if len(e.outcomes) != maxOutcomesPerEntry {
		t.Errorf("outcomes len = %d, want capped at %d", len(e.outcomes), maxOutcomesPerEntry)
	}
	// Beyond the cap, uncached budgets recompute; cached ones don't.
	before := calls
	e.outcome(1, func() core.Outcome { calls++; return core.Outcome{} })
	if calls != before {
		t.Error("cached budget recomputed")
	}
	e.outcome(float64(maxOutcomesPerEntry+5), func() core.Outcome { calls++; return core.Outcome{} })
	if calls != before+1 {
		t.Error("over-cap budget was not recomputed")
	}
}

// TestPlanCacheDisabled: a nil cache builds every time (the baseline mode).
func TestPlanCacheDisabled(t *testing.T) {
	c := newPlanCache(-1)
	if c != nil {
		t.Fatal("negative cap should disable the cache")
	}
	builds := 0
	for i := 0; i < 3; i++ {
		e, hit, err := c.get("k", func() (*core.QueryContext, error) { builds++; return dummyCtx(), nil })
		if err != nil || e == nil || hit {
			t.Fatalf("disabled get: entry=%v hit=%v err=%v", e, hit, err)
		}
	}
	if builds != 3 {
		t.Errorf("builds = %d, want 3", builds)
	}
}

// TestResultCacheTTL: entries expire after the TTL (fake clock) and get
// refreshed by put.
func TestResultCacheTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := newResultCache(8, 10*time.Second, clock)
	key := ResultKey{SQL: "SELECT 1", Kind: VizHeatmap, GridW: 8, GridH: 8, Budget: 500}
	resp := &Response{Kind: VizHeatmap}

	c.Put(key, resp)
	if got := c.Get(key); got != resp {
		t.Fatal("fresh entry missed")
	}

	now = now.Add(9 * time.Second)
	if got := c.Get(key); got != resp {
		t.Fatal("entry expired early")
	}

	now = now.Add(2 * time.Second) // 11s after put
	if got := c.Get(key); got != nil {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry not dropped: len = %d", c.Len())
	}

	// put refreshes the expiry of an existing key.
	c.Put(key, resp)
	now = now.Add(8 * time.Second)
	c.Put(key, resp)
	now = now.Add(8 * time.Second) // 16s after first put, 8s after refresh
	if got := c.Get(key); got != resp {
		t.Fatal("refreshed entry expired")
	}
}

// TestResultCacheLRU: capacity bounds the cache with least-recently-used
// eviction, and distinct budgets/grids/regions are distinct keys.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, time.Minute, nil)
	k := func(b float64) ResultKey { return ResultKey{SQL: "q", Budget: b} }
	r1, r2, r3 := &Response{}, &Response{}, &Response{}

	c.Put(k(1), r1)
	c.Put(k(2), r2)
	c.Get(k(1)) // refresh 1
	c.Put(k(3), r3)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Get(k(1)) != r1 {
		t.Error("recently-used entry evicted")
	}
	if c.Get(k(2)) != nil {
		t.Error("LRU entry survived")
	}
	if c.Get(k(3)) != r3 {
		t.Error("newest entry missing")
	}

	// Region variation keys separately.
	kr := ResultKey{SQL: "q", Region: engine.Rect{MaxLon: 1}}
	if c.Get(kr) != nil {
		t.Error("distinct region aliased an existing key")
	}

	// The capacity is exact: many distinct keys fill it and never exceed it.
	const capacity = 37
	c = newResultCache(capacity, time.Minute, nil)
	for i := 0; i < 10*capacity; i++ {
		c.Put(k(float64(i)), r1)
	}
	if got := c.Len(); got != capacity {
		t.Errorf("len = %d after %d distinct keys, want exactly %d", got, 10*capacity, capacity)
	}
}

// TestResultCacheDisabled: a nil cache never stores.
func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1, time.Minute, nil)
	if c != nil {
		t.Fatal("negative cap should disable the cache")
	}
	c.Put(ResultKey{SQL: "q"}, &Response{})
	if c.Get(ResultKey{SQL: "q"}) != nil {
		t.Fatal("disabled cache returned a response")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}
