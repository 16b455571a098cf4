package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// dupHeavyTree builds a tree whose keys repeat heavily so runs of equal keys
// span leaf boundaries (size routinely exceeds btreeOrder while distinct keys
// stay small).
func dupHeavyTree(rng *rand.Rand, size, distinct int) (*BTree, []float64) {
	keys := make([]float64, size)
	rows := make([]uint32, size)
	for i := range keys {
		keys[i] = float64(rng.Intn(distinct))
		rows[i] = uint32(i)
	}
	return NewBTree(keys, rows), keys
}

// TestBTreeVisitMatchesRange is the differential property test for the
// visitor API: for random duplicate-heavy trees and random ranges (including
// empty and inverted ones), Visit must report the same rows in the same
// order AND the same entries count as the materializing Range scan.
func TestBTreeVisitMatchesRange(t *testing.T) {
	prop := func(seed int64, n uint16, loRaw, hiRaw int16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%2000 + 1 // up to ~31 leaves: duplicates cross leaves
		tree, _ := dupHeavyTree(rng, size, 40)
		lo := float64(int(loRaw) % 50)
		hi := float64(int(hiRaw) % 50) // hi < lo on purpose sometimes
		wantRows, wantEntries := tree.Range(lo, hi)
		var gotRows []uint32
		gotEntries := tree.Visit(lo, hi, func(r uint32) bool {
			gotRows = append(gotRows, r)
			return true
		})
		return gotEntries == wantEntries && equalRows(gotRows, wantRows)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeVisitEarlyStop: a false-returning callback stops the scan; the
// stopping entry has been counted and no further rows are delivered.
func TestBTreeVisitEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree, _ := dupHeavyTree(rng, 500, 20)
	full, fullEntries := tree.Range(0, 19)
	if len(full) != 500 {
		t.Fatalf("expected the full tree in range, got %d rows", len(full))
	}
	for _, stopAfter := range []int{0, 1, 7, 499} {
		var got []uint32
		entries := tree.Visit(0, 19, func(r uint32) bool {
			got = append(got, r)
			return len(got) <= stopAfter
		})
		if len(got) != stopAfter+1 {
			t.Fatalf("stopAfter=%d: visited %d rows", stopAfter, len(got))
		}
		if !equalRows(got, full[:stopAfter+1]) {
			t.Fatalf("stopAfter=%d: visited rows diverge from Range prefix", stopAfter)
		}
		// Entries: descent + one per visited slot (the stopping slot was
		// charged before fn ran). With every key in range, Range's count is
		// descent + all 500 slots, so the early-stopped count is Range's
		// minus the slots never reached. stopAfter=499 degenerates to the
		// full drain, which must equal Range exactly.
		wantEntries := fullEntries - len(full) + stopAfter + 1
		if entries != wantEntries {
			t.Fatalf("stopAfter=%d: entries=%d want %d", stopAfter, entries, wantEntries)
		}
	}
}

// TestBTreeCountRangeMatchesRange: CountRange over random trees and ranges
// equals the materialized row count (the satellite bugfix regression test).
func TestBTreeCountRangeMatchesRange(t *testing.T) {
	prop := func(seed int64, n uint16, loRaw, hiRaw int16) bool {
		rng := rand.New(rand.NewSource(seed))
		tree, _ := dupHeavyTree(rng, int(n)%1500+1, 30)
		lo := float64(int(loRaw) % 40)
		hi := float64(int(hiRaw) % 40)
		rows, _ := tree.Range(lo, hi)
		return tree.CountRange(lo, hi) == len(rows)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
