package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentRunDeterministic: DB.Run is safe for concurrent readers and
// every goroutine sees exactly the result a serial execution produces, for
// every plan shape. Run with -race to exercise the concurrency claim.
func TestConcurrentRunDeterministic(t *testing.T) {
	db := buildTestDB(t, 4000, 1)
	q := testQuery(db)

	type ref struct {
		rows  []uint32
		stats ExecStats
	}
	refs := make([]ref, 8)
	for mask := 0; mask < 8; mask++ {
		res, stats, err := db.Run(q, ForcedHint(PositionsFromMask(uint32(mask), 3), JoinAuto))
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		refs[mask] = ref{rows: res.RowIDs, stats: stats}
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				mask := (g + it) % 8
				res, stats, err := db.Run(q, ForcedHint(PositionsFromMask(uint32(mask), 3), JoinAuto))
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(res.RowIDs, refs[mask].rows) {
					t.Errorf("goroutine %d mask %d: rows diverge from serial run", g, mask)
					return
				}
				if stats != refs[mask].stats {
					t.Errorf("goroutine %d mask %d: stats diverge: %+v vs %+v", g, mask, stats, refs[mask].stats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestLookupCacheMatchesDirectExecution: routing executions through a shared
// LookupCache must not change a single output bit — rows, stats, and
// therefore virtual time are identical, and the cache actually memoizes.
func TestLookupCacheMatchesDirectExecution(t *testing.T) {
	db := buildTestDB(t, 4000, 3)
	q := testQuery(db)
	cache := NewLookupCache()
	for mask := 0; mask < 8; mask++ {
		h := ForcedHint(PositionsFromMask(uint32(mask), 3), JoinAuto)
		plain, plainStats, err := db.Run(q, h)
		if err != nil {
			t.Fatalf("mask %d plain: %v", mask, err)
		}
		cached, cachedStats, err := db.RunCached(q, h, cache)
		if err != nil {
			t.Fatalf("mask %d cached: %v", mask, err)
		}
		if !reflect.DeepEqual(plain.RowIDs, cached.RowIDs) {
			t.Errorf("mask %d: cached rows diverge", mask)
		}
		if plainStats != cachedStats {
			t.Errorf("mask %d: cached stats diverge: %+v vs %+v", mask, cachedStats, plainStats)
		}
	}
	if cache.Len() != 3 {
		t.Errorf("cache memoized %d lookups, want 3 (one per indexed predicate)", cache.Len())
	}
	// Second pass served entirely from cache still agrees.
	for mask := 0; mask < 8; mask++ {
		h := ForcedHint(PositionsFromMask(uint32(mask), 3), JoinAuto)
		plain, plainStats, err := db.Run(q, h)
		if err != nil {
			t.Fatal(err)
		}
		cached, cachedStats, err := db.RunCached(q, h, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.RowIDs, cached.RowIDs) || plainStats != cachedStats {
			t.Errorf("mask %d: warm cache diverges", mask)
		}
	}
	// Cached true selectivities agree with the direct computation.
	direct := db.TrueSelectivities(q)
	viaCache := db.TrueSelectivitiesCached(q, cache)
	if !reflect.DeepEqual(direct, viaCache) {
		t.Errorf("cached selectivities %v, want %v", viaCache, direct)
	}
}

// TestLookupCacheInvalidation: Reset and InvalidateTable drop the right
// entries, and a cache that outlives many queries (server-scope lifetime)
// refills transparently after invalidation.
func TestLookupCacheInvalidation(t *testing.T) {
	db := buildTestDB(t, 2000, 7)
	q := testQuery(db)
	cache := NewLookupCache()

	h := ForcedHint([]int{0, 1, 2}, JoinAuto)
	if _, _, err := db.RunCached(q, h, cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Fatalf("cache has %d entries, want 3", cache.Len())
	}

	// Invalidating an unrelated table keeps every entry.
	cache.InvalidateTable("nosuchtable")
	if cache.Len() != 3 {
		t.Errorf("unrelated invalidation dropped entries: %d left", cache.Len())
	}

	// Invalidating the scanned table drops all of its entries.
	cache.InvalidateTable("events")
	if cache.Len() != 0 {
		t.Errorf("InvalidateTable left %d entries", cache.Len())
	}

	// The cache refills and still matches direct execution.
	plain, plainStats, err := db.Run(q, h)
	if err != nil {
		t.Fatal(err)
	}
	refilled, refilledStats, err := db.RunCached(q, h, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.RowIDs, refilled.RowIDs) || plainStats != refilledStats {
		t.Error("post-invalidation execution diverges from direct run")
	}
	if cache.Len() != 3 {
		t.Errorf("cache did not refill: %d entries", cache.Len())
	}

	cache.Reset()
	if cache.Len() != 0 {
		t.Errorf("Reset left %d entries", cache.Len())
	}
}

// TestLookupCacheCap: a bounded cache stops memoizing at its cap but still
// serves correct results, so server-scope caches can't grow without bound.
func TestLookupCacheCap(t *testing.T) {
	db := buildTestDB(t, 2000, 9)
	q := testQuery(db)
	capped := NewLookupCacheWithCap(2)

	h := ForcedHint([]int{0, 1, 2}, JoinAuto) // 3 distinct lookups
	plain, plainStats, err := db.Run(q, h)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := db.RunCached(q, h, capped)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.RowIDs, got.RowIDs) || plainStats != gotStats {
		t.Error("capped-cache execution diverges from direct run")
	}
	if capped.Len() != 2 {
		t.Errorf("capped cache has %d entries, want 2", capped.Len())
	}
	// Further executions with new predicates still work, cache stays at cap.
	if _, _, err := db.RunCached(q, h, capped); err != nil {
		t.Fatal(err)
	}
	if capped.Len() != 2 {
		t.Errorf("cap exceeded: %d entries", capped.Len())
	}
}

// TestLookupMemoInFrontOfFullCache: a memo layered on a shared cache that has
// no room left still shares scans within its own unit of work. Each distinct
// predicate reaches the shared cache once (a miss it cannot keep); repeats
// are the memo's, alias one canonical slice, and leave the shared cache's
// contents, cap and counters alone. Results and stats stay those of a direct
// run.
func TestLookupMemoInFrontOfFullCache(t *testing.T) {
	db := buildTestDB(t, 2000, 9)
	q := testQuery(db)
	shared := NewLookupCacheWithCap(1)
	other := Predicate{Col: "ts", Kind: PredRange, Lo: 1, Hi: 2}
	if _, _, err := shared.lookup(db.Table("events"), db.Table("events").Index("ts"), other); err != nil {
		t.Fatal(err)
	}
	h0, m0 := shared.Stats()

	h := ForcedHint([]int{0, 1, 2}, JoinAuto) // 3 distinct lookups
	plain, plainStats, err := db.Run(q, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, layered := range []*LookupCache{NewLookupMemo(shared), NewLookupMemo(nil)} {
		for run := 0; run < 3; run++ {
			got, gotStats, err := db.RunCached(q, h, layered)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.RowIDs, got.RowIDs) || plainStats != gotStats {
				t.Fatalf("run %d through a memo diverges from the direct run", run)
			}
		}
		if layered.Len() != 3 {
			t.Errorf("memo holds %d lookups, want 3", layered.Len())
		}
		if hits, misses := layered.Stats(); hits != 6 || misses != 3 {
			t.Errorf("memo served %d hits / %d misses over three runs, want 6 / 3", hits, misses)
		}
	}
	if h1, m1 := shared.Stats(); h1 != h0 || m1 != m0+3 {
		t.Errorf("shared cache saw %d hits / %d misses from three runs, want 0 / 3", h1-h0, m1-m0)
	}
	if shared.Len() != 1 {
		t.Errorf("full shared cache now holds %d entries, want 1", shared.Len())
	}

	// A predicate the shared cache does hold comes back as the shared
	// storage, so every consumer aliases one canonical posting list.
	tb := db.Table("events")
	fromShared, _, _ := shared.lookup(tb, tb.Index("ts"), other)
	fromMemo, _, _ := NewLookupMemo(shared).lookup(tb, tb.Index("ts"), other)
	if fromShared.Len() > 0 && !sameStorage(fromShared, fromMemo) {
		t.Error("memo copied a posting list the shared cache already holds")
	}
}

// TestResolvePlan: ResolvePlan names the plan an execution will follow —
// the unhinted run and the forced hint the optimizer would pick are one
// plan, any other index subset or rewrite clause is another, and a backend
// that drops every hint has only the optimizer's.
func TestResolvePlan(t *testing.T) {
	db := buildTestDB(t, 2000, 9)
	q := testQuery(db)
	chosen := db.ChoosePlan(q)
	auto := db.ResolvePlan(q, Hint{})
	if got := db.ResolvePlan(q, ForcedHint(chosen.Positions, JoinAuto)); got != auto {
		t.Errorf("forced optimizer plan resolves to %+v, unhinted to %+v", got, auto)
	}
	seen := map[PlanID]string{}
	note := func(label string, rq *Query, h Hint) {
		t.Helper()
		id := db.ResolvePlan(rq, h)
		if prev, dup := seen[id]; dup {
			t.Errorf("%s and %s resolve to the same plan %+v", prev, label, id)
		}
		seen[id] = label
	}
	for mask := uint32(0); mask < 8; mask++ {
		note(fmt.Sprintf("mask %03b", mask), q, ForcedHint(PositionsFromMask(mask, 3), JoinAuto))
	}
	limited := q.Clone()
	limited.Limit = 10
	note("limit", limited, ForcedHint(nil, JoinAuto))
	joined := q.Clone()
	joined.Join = &JoinClause{Table: "dims", LeftCol: "fk", RightCol: "id"}
	if db.ResolvePlan(joined, ForcedHint([]int{1}, HashJoin)) == db.ResolvePlan(joined, ForcedHint([]int{1}, MergeJoin)) {
		t.Error("join methods resolve to one plan")
	}

	db.Profile.HintDropProb = 1
	for mask := uint32(0); mask < 8; mask++ {
		if got := db.ResolvePlan(q, ForcedHint(PositionsFromMask(mask, 3), JoinAuto)); got != auto {
			t.Errorf("mask %03b with every hint dropped resolves to %+v, want the optimizer's %+v", mask, got, auto)
		}
	}
}

// TestIntersectSortedInto: intersecting into a scratch buffer matches
// intersecting into nil and reuses the destination's storage.
func TestIntersectSortedInto(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9, 11}
	b := []uint32{3, 4, 5, 9, 12}
	want, wantWork := intersectSortedInto(nil, a, b)
	buf := make([]uint32, 0, 16)
	got, gotWork := intersectSortedInto(buf, a, b)
	if !reflect.DeepEqual(got, want) || gotWork != wantWork {
		t.Errorf("intersectSortedInto = %v (work %d), want %v (work %d)", got, gotWork, want, wantWork)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Error("intersectSortedInto did not reuse the destination buffer")
	}
}
