package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// The allocation-guard tests pin steady-state allocs/op ceilings for the
// executor hot paths, so a regression reintroducing per-probe slices (or any
// new per-row allocation) fails in CI instead of only showing up in benchmark
// diffs. Ceilings leave headroom over the measured numbers (joins measure
// ~35, dominated by the escaping Result and the one cached index lookup) but
// sit far below the pre-cursor ~224.
//
// testing.AllocsPerRun averages over runs after a warm-up call has populated
// the execContext pool, so pooled scratch does not count.

// guardAllocs asserts fn stays at or under ceiling allocations per run.
func guardAllocs(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	fn() // warm pools and lazily-built statistics
	if got := testing.AllocsPerRun(10, fn); got > ceiling {
		t.Errorf("%s: %.1f allocs/op, ceiling %.0f", name, got, ceiling)
	}
}

// TestAllocGuardBTreeVisit: the visitor scan and CountRange are
// allocation-free, including the closure the caller passes.
func TestAllocGuardBTreeVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tree, _ := dupHeavyTree(rng, 50_000, 1000)
	n := 0
	guardAllocs(t, "Visit", 0, func() {
		n = 0
		tree.Visit(100, 400, func(uint32) bool { n++; return true })
	})
	guardAllocs(t, "CountRange", 0, func() {
		n = tree.CountRange(100, 400)
	})
	_ = n
}

// TestAllocGuardBTreeCursor: a reset cursor driving sorted and unsorted
// probe sequences never allocates.
func TestAllocGuardBTreeCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tree, _ := dupHeavyTree(rng, 50_000, 1000)
	var cur Cursor
	guardAllocs(t, "Cursor", 0, func() {
		cur.Reset(tree)
		for k := 0.0; k < 1000; k += 7 {
			cur.Seek(k)
			for {
				if _, ok := cur.Next(k); !ok {
					break
				}
			}
		}
	})
}

// allocGuardJoinQuery returns the shared executor-guard fixture: the same
// shape BenchmarkEngineExecuteJoinPlan runs, at a size small enough for the
// test suite.
func allocGuardJoinQuery(t *testing.T) (*DB, *Query) {
	db := buildTestDB(t, 8_000, 5)
	q := testQuery(db)
	q.Join = &JoinClause{
		Table: "dims", LeftCol: "fk", RightCol: "id",
		Preds: []Predicate{{Col: "weight", Kind: PredRange, Lo: 2, Hi: 9}},
	}
	return db, q
}

// TestAllocGuardExecutorJoins: steady-state ceilings for all three join
// methods (the acceptance bar is ≤40 on the benchmark's larger fixture; the
// remaining allocations here are the Result escaping to the caller and the
// uncached index-scan materialization on the access path).
func TestAllocGuardExecutorJoins(t *testing.T) {
	db, q := allocGuardJoinQuery(t)
	for _, jm := range []JoinMethod{NestLoopJoin, HashJoin, MergeJoin} {
		hint := ForcedHint([]int{1}, jm)
		guardAllocs(t, jm.String(), 40, func() {
			if _, _, err := db.Run(q, hint); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocGuardExecutorIndexScan: the no-join multi-index path stays at its
// pooled-scratch floor (measured ~30 on this fixture: the escaping Result,
// its row/point appends, and the uncached btree lookup materialization).
func TestAllocGuardExecutorIndexScan(t *testing.T) {
	db := buildTestDB(t, 8_000, 5)
	q := testQuery(db)
	hint := ForcedHint([]int{0, 1}, JoinAuto)
	guardAllocs(t, "IndexScan", 40, func() {
		if _, _, err := db.Run(q, hint); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGuardTrueSelectivity: the uncached btree range path counts via
// Visit and must not materialize row ids.
func TestAllocGuardTrueSelectivity(t *testing.T) {
	db := buildTestDB(t, 8_000, 5)
	tb := db.Table("events")
	p := Predicate{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 7000}
	var sel float64
	guardAllocs(t, "TrueSelectivity", 0, func() {
		sel = TrueSelectivity(tb, p)
	})
	if sel <= 0 {
		t.Fatalf("selectivity %v, want > 0", sel)
	}
}

// TestAllocGuardIndexLookup: at steady state a tree lookup allocates exactly
// the slice it returns — the rowSet that orders the matches is pooled, and
// neither the Visit closure nor the R-tree walk escapes.
func TestAllocGuardIndexLookup(t *testing.T) {
	db := buildTestDB(t, 8_000, 5)
	tb := db.Table("events")
	for _, p := range []Predicate{
		{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 7000},                                           // marked regime
		{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 2010},                                           // buffered regime
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 20, MinLat: 10, MaxLon: 80, MaxLat: 40}},     // marked
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 20, MinLat: 10, MaxLon: 21, MaxLat: 10.5}},   // buffered
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 200, MinLat: 200, MaxLon: 201, MaxLat: 201}}, // empty: nil
		{Col: "text", Kind: PredKeyword, Word: tb.Vocab.ID("c"), WordText: "c"},                    // shared posting list
	} {
		ix := tb.Index(p.Col)
		ceiling := 1.0
		if rows, _, err := ix.Lookup(p); err != nil {
			t.Fatal(err)
		} else if rows.Len() == 0 || ix.Kind == IndexInverted {
			ceiling = 0
		}
		guardAllocs(t, p.String(), ceiling, func() {
			if _, _, err := ix.Lookup(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocGuardCounter: once a Counter holds a query's intersections,
// pricing another forced plan of it is pure arithmetic over them — no
// allocation, whichever index subset the hint forces.
func TestAllocGuardCounter(t *testing.T) {
	db := buildTestDB(t, 8_000, 5)
	q := testQuery(db)
	c := db.NewCounter(q, NewLookupMemo(nil))
	if c == nil {
		t.Fatal("the fixture query is not countable")
	}
	for _, positions := range [][]int{nil, {0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}} {
		h := ForcedHint(positions, JoinAuto)
		guardAllocs(t, fmt.Sprint("Counter.Stats ", positions), 0, func() {
			if _, ok := c.Stats(h); !ok {
				t.Fatal("forced plan not counted")
			}
		})
	}
}

// TestAllocGuardBoundPredicates: binding predicates to column storage costs
// the scan loops nothing. One query run as a sequential scan (three bound
// predicates, cheap-first), as a one-index plan (two bound residuals) and as
// an all-index plan (none) — lookups served from a cache, so only the
// executor's own work is counted — allocates the same: what emitting the
// identical result rows allocates.
func TestAllocGuardBoundPredicates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	db := buildTestDB(t, 8_000, 5)
	q := testQuery(db)
	cache := NewLookupCache()
	measure := func(positions []int) float64 {
		h := ForcedHint(positions, JoinAuto)
		run := func() {
			if _, _, err := db.RunCached(q, h, cache); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	emitOnly := measure([]int{0, 1, 2})
	if got := measure([]int{0}); got != emitOnly {
		t.Errorf("residual loop: %.1f allocs/op, emit-only floor %.1f", got, emitOnly)
	}
	if got := measure(nil); got != emitOnly {
		t.Errorf("seqScan: %.1f allocs/op, emit-only floor %.1f", got, emitOnly)
	}
}
