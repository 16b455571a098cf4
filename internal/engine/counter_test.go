package engine

import (
	"reflect"
	"slices"
	"testing"
)

// TestCounterResultEdges: Counter.Result equals what the executor and the
// reference executor return under every hint for an empty answer, the whole
// table (every list a bitmap), a partial answer and a query with no
// predicate, and its slices are fresh — writing them changes no posting list and no
// later answer.
func TestCounterResultEdges(t *testing.T) {
	db := buildTestDB(t, 8_000, 5)
	everywhere := Rect{MinLon: -1, MinLat: -1, MaxLon: 101, MaxLat: 51}
	empty := testQuery(db)
	empty.Preds[1].Lo, empty.Preds[1].Hi = 20_000, 30_000
	whole := testQuery(db)
	whole.Preds = []Predicate{
		{Col: "ts", Kind: PredRange, Lo: -1, Hi: 1e9},
		{Col: "loc", Kind: PredGeo, Box: everywhere},
		{Col: "val", Kind: PredRange, Lo: -1, Hi: 1e9},
	}
	unfiltered := testQuery(db)
	unfiltered.Preds = nil
	for _, tc := range []struct {
		name string
		q    *Query
		rows int // -1: some, neither none nor all
	}{
		{"empty", empty, 0},
		{"whole table", whole, 8_000},
		{"partial", testQuery(db), -1},
		{"no predicate", unfiltered, 8_000},
	} {
		cache := NewLookupMemo(nil)
		c := db.NewCounter(tc.q, cache)
		if c == nil {
			t.Fatalf("%s: not countable", tc.name)
		}
		for i, l := range c.lists {
			if tc.rows == 8_000 && l.bits == nil {
				t.Fatalf("%s: list %d is an array, want the smaller encoding, a bitmap", tc.name, i)
			}
		}
		got := c.Result()
		if n := len(got.RowIDs); tc.rows >= 0 && n != tc.rows || tc.rows < 0 && (n == 0 || n == 8_000) {
			t.Fatalf("%s: %d rows", tc.name, n)
		}
		for mask := uint32(0); mask < 1<<len(tc.q.Preds); mask++ {
			h := ForcedHint(PositionsFromMask(mask, len(tc.q.Preds)), JoinAuto)
			want, _, err := db.RunCached(tc.q, h, cache)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := db.refRun(tc.q, h)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s, mask %03b: counted result differs from the executed one", tc.name, mask)
			}
		}
		if len(got.RowIDs) == 0 {
			continue
		}
		saved := slices.Clone(got.RowIDs)
		for i := range got.RowIDs {
			got.RowIDs[i] = ^got.RowIDs[i]
		}
		if again := c.Result(); !slices.Equal(again.RowIDs, saved) {
			t.Fatalf("%s: writing a result's rows changed the Counter's next answer", tc.name)
		}
	}
	// A one-predicate answer is the cached posting list itself, copied.
	q := testQuery(db)
	q.Preds = q.Preds[:1]
	cache := NewLookupMemo(nil)
	got := db.NewCounter(q, cache).Result()
	list, _, _ := cache.lookup(db.Table("events"), db.Table("events").Index("text"), q.Preds[0])
	if len(got.RowIDs) == 0 || sameStorage(arrayPosting(got.RowIDs), list) {
		t.Fatal("a one-predicate result aliases the cached posting list")
	}
}
