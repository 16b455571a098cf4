package middleware

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
)

func dummyCtx() *core.QueryContext { return &core.QueryContext{} }

// TestPlanCacheLRU: the cache holds at most cap entries and evicts the
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
	if _, how, _ := c.get("a", build); how != planHit {
		t.Errorf("a: %v, want hit", how)
	}
	if _, how, _ := c.get("b", build); how != planMiss {
		t.Errorf("b: %v, want miss (evicted)", how)
	}
}

// TestPlanCacheSingleFlight: N concurrent gets for the same key run build
// exactly once; the rest coalesce onto the in-flight call.
func TestPlanCacheSingleFlight(t *testing.T) {
	c := newPlanCache(8)
	var builds atomic.Int32
	gate := make(chan struct{})
	build := func() (*core.QueryContext, error) {
		builds.Add(1)
		<-gate
		return dummyCtx(), nil
	}

	const n = 8
	var wg sync.WaitGroup
	var hits, misses, coalesced atomic.Int32
	entries := make([]*planEntry, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			e, how, err := c.get("k", build)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
			switch how {
			case planHit:
				hits.Add(1)
			case planMiss:
				misses.Add(1)
			case planCoalesced:
				coalesced.Add(1)
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// Give the waiters a moment to reach the in-flight wait, then open the
	// gate. (Timing only affects the hit/coalesced split, not correctness.)
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Errorf("build ran %d times, want 1", got)
	}
	if misses.Load() != 1 {
		t.Errorf("misses = %d, want exactly 1", misses.Load())
	}
	if hits.Load()+coalesced.Load() != n-1 {
		t.Errorf("hits+coalesced = %d, want %d", hits.Load()+coalesced.Load(), n-1)
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a different entry", i)
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
	if _, how, err := c.get("k", func() (*core.QueryContext, error) { calls++; return dummyCtx(), nil }); err != nil || how != planMiss {
		t.Fatalf("retry: how=%v err=%v", how, err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
}

// TestPlanCacheBuildPanicUnwedges: a panicking build must not wedge the
// key — waiters get an error and the next request retries.
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
	// The key must be retryable, not blocked on a never-closed inflight call.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, how, err := c.get("k", func() (*core.QueryContext, error) { return dummyCtx(), nil }); err != nil || how != planMiss {
			t.Errorf("retry after panic: how=%v err=%v", how, err)
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
		e, how, err := c.get("k", func() (*core.QueryContext, error) { builds++; return dummyCtx(), nil })
		if err != nil || e == nil || how != planMiss {
			t.Fatalf("disabled get: entry=%v how=%v err=%v", e, how, err)
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

	c.put(key, resp)
	if got := c.get(key); got != resp {
		t.Fatal("fresh entry missed")
	}

	now = now.Add(9 * time.Second)
	if got := c.get(key); got != resp {
		t.Fatal("entry expired early")
	}

	now = now.Add(2 * time.Second) // 11s after put
	if got := c.get(key); got != nil {
		t.Fatal("expired entry served")
	}
	if c.len() != 0 {
		t.Errorf("expired entry not dropped: len = %d", c.len())
	}

	// put refreshes the expiry of an existing key.
	c.put(key, resp)
	now = now.Add(8 * time.Second)
	c.put(key, resp)
	now = now.Add(8 * time.Second) // 16s after first put, 8s after refresh
	if got := c.get(key); got != resp {
		t.Fatal("refreshed entry expired")
	}
}

// TestResultCacheLRU: capacity bounds the cache with least-recently-used
// eviction, and distinct budgets/grids/regions are distinct keys.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, time.Minute, nil)
	k := func(b float64) ResultKey { return ResultKey{SQL: "q", Budget: b} }
	r1, r2, r3 := &Response{}, &Response{}, &Response{}

	c.put(k(1), r1)
	c.put(k(2), r2)
	c.get(k(1)) // refresh 1
	c.put(k(3), r3)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if c.get(k(1)) != r1 {
		t.Error("recently-used entry evicted")
	}
	if c.get(k(2)) != nil {
		t.Error("LRU entry survived")
	}
	if c.get(k(3)) != r3 {
		t.Error("newest entry missing")
	}

	// Region variation keys separately.
	kr := ResultKey{SQL: "q", Region: engine.Rect{MaxLon: 1}}
	if c.get(kr) != nil {
		t.Error("distinct region aliased an existing key")
	}
}

// TestResultCacheDisabled: a nil cache never stores.
func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1, time.Minute, nil)
	if c != nil {
		t.Fatal("negative cap should disable the cache")
	}
	c.put(ResultKey{SQL: "q"}, &Response{})
	if c.get(ResultKey{SQL: "q"}) != nil {
		t.Fatal("disabled cache returned a response")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}
