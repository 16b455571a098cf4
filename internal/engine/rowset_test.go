package engine

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRowSetMatchesSort: whatever order distinct row ids arrive in, the
// set's posting holds them exactly as a comparison sort would — across the
// buffered (tiny / sparse) and the marked regimes, ids past the sizing hint
// included — in the smaller of the two encodings.
func TestRowSetMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct {
		name          string
		nbits, n, max int // n distinct ids below max, set sized for nbits
	}{
		{"empty", 4096, 0, 4096},
		{"one-row", 4096, 1, 4096},
		{"at-threshold", 4096, rowSetMinSort, 4096},
		{"just-past-threshold", 4096, rowSetMinSort + 1, 4096},
		{"sparse", 1 << 20, 300, 1 << 20}, // under nwords/32: sorted, bitset untouched
		{"dense", 60_000, 20_000, 60_000},
		{"all-rows", 5_000, 5_000, 5_000},
		{"past-hint", 1_000, 900, 9_000}, // ids the hint did not size for
		{"zero-hint", 0, 500, 3_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ { // reuse pooled sets: posting must leave them clean
				ids := rng.Perm(c.max)[:c.n]
				set := getRowSet(c.nbits)
				want := make([]uint32, 0, c.n)
				for _, id := range ids {
					set.add(uint32(id))
					want = append(want, uint32(id))
				}
				slices.Sort(want)
				words, marking := len(set.words), set.marking
				p := set.posting()
				got := p.AppendTo(nil)
				if !slices.Equal(got, want) || p.Len() != len(want) {
					t.Fatalf("trial %d: posting diverges from sort (%d vs %d rows)", trial, len(got), len(want))
				}
				if len(want) > 0 && p.last != want[len(want)-1] {
					t.Fatalf("trial %d: last = %d, want %d", trial, p.last, want[len(want)-1])
				}
				if dense := marking && bitmapIsSmaller(len(want), words); (p.bits != nil) != dense {
					t.Fatalf("trial %d: bitmap %v, want %v (%d rows over %d words)", trial, p.bits != nil, dense, len(want), words)
				}
				if c.n == 0 && p.ids != nil {
					t.Fatalf("empty set drained to %v, want nil", p.ids)
				}
			}
		})
	}
	// A set swept into an array is all zeros again; a dense one hands its
	// bitset out and keeps no reference to it.
	set := getRowSet(10_000)
	for i := 0; i < 200; i++ { // marked, but under 2 rows a word
		set.add(uint32(i * 20))
	}
	words := set.words
	if p := set.posting(); p.bits != nil {
		t.Fatal("a sparse marked set handed out its bitset")
	}
	for w, word := range words {
		if word != 0 {
			t.Fatalf("word %d = %#x after the sweep, want 0", w, word)
		}
	}
	set = getRowSet(10_000)
	for i := 0; i < 5_000; i++ {
		set.add(uint32(i * 2))
	}
	words = set.words
	p := set.posting()
	if p.bits == nil || &p.bits[0] != &words[0] {
		t.Fatal("a dense set did not hand out its bitset")
	}
	want := p.AppendTo(nil)
	for trial := 0; trial < 4; trial++ { // later checkouts must not reuse it
		next := getRowSet(10_000)
		for i := 0; i < 6_000; i++ {
			next.add(uint32(i + 1))
		}
		next.posting()
	}
	if !slices.Equal(p.AppendTo(nil), want) {
		t.Fatal("a later checkout of the pool wrote into a handed-out bitset")
	}
}

// TestIndexLookupMatchesSortOracle: Index.Lookup (tree walk marking a rowSet)
// returns the rows and the entries-touched count of the materialize-then-sort
// lookup it replaced, on duplicate-heavy keys, empty / one-row / all-rows
// ranges and boxes, and again after ingest has appended row ids to the
// incrementally maintained trees.
func TestIndexLookupMatchesSortOracle(t *testing.T) {
	db := buildTestDB(t, 6_000, 9)
	tb := db.Table("events")
	if _, err := tb.BuildIndex("fk", IndexBTree); err != nil { // ~600 distinct keys: long duplicate runs
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	preds := func() []Predicate {
		ps := []Predicate{
			{Col: "ts", Kind: PredRange, Lo: 5, Hi: 4}, // empty (inverted)
			{Col: "ts", Kind: PredRange, Lo: -10, Hi: -1},
			{Col: "ts", Kind: PredRange, Lo: float64(tb.Col("ts").Ints[17]), Hi: float64(tb.Col("ts").Ints[17])},
			{Col: "ts", Kind: PredRange, Lo: -1, Hi: 1e9}, // all rows
			{Col: "fk", Kind: PredRange, Lo: 3, Hi: 3},
			{Col: "fk", Kind: PredRange, Lo: 0, Hi: 1e9},
			{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 200, MinLat: 200, MaxLon: 201, MaxLat: 201}}, // empty
			{Col: "loc", Kind: PredGeo, Box: PointRect(tb.Col("loc").Points[23])},
			{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: -1, MinLat: -1, MaxLon: 101, MaxLat: 51}}, // all rows
		}
		for i := 0; i < 40; i++ {
			lo := rng.Float64() * 10_000
			ps = append(ps, Predicate{Col: "ts", Kind: PredRange, Lo: lo, Hi: lo + rng.Float64()*3_000})
			k := float64(rng.Intn(600))
			ps = append(ps, Predicate{Col: "fk", Kind: PredRange, Lo: k, Hi: k + float64(rng.Intn(40))})
			x, y := rng.Float64()*100, rng.Float64()*50
			ps = append(ps, Predicate{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: x, MinLat: y, MaxLon: x + rng.Float64()*40, MaxLat: y + rng.Float64()*20}})
		}
		return ps
	}
	check := func(stage string) {
		t.Helper()
		sawBuffered, sawMarked := false, false
		for _, p := range preds() {
			ix := tb.Index(p.Col)
			list, gotEntries, err := ix.Lookup(p)
			got := list.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, wantEntries, err := refLookup(ix, p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || gotEntries != wantEntries {
				t.Fatalf("%s: %s: %d rows / %d entries, oracle %d rows / %d entries",
					stage, p, len(got), gotEntries, len(want), wantEntries)
			}
			if len(got) > 0 && len(got) <= rowSetMinSort {
				sawBuffered = true
			}
			if len(got) > tb.Rows/2 {
				sawMarked = true
			}
		}
		if !sawBuffered || !sawMarked {
			t.Fatalf("%s: predicates missed a regime (buffered %v, marked %v)", stage, sawBuffered, sawMarked)
		}
	}
	check("bulk-loaded")
	for round := 0; round < 3; round++ {
		if _, err := db.ApplyBatch("events", ingestBatch(t, int64(70+round), 700), time.Unix(int64(round), 0)); err != nil {
			t.Fatal(err)
		}
	}
	check("after ingest")
	if last := uint32(tb.Rows - 1); !slices.Contains(mustLookup(t, tb, Predicate{Col: "ts", Kind: PredRange, Lo: -1, Hi: 1e9}), last) {
		t.Fatalf("appended row id %d missing from a full-range lookup", last)
	}
}

func mustLookup(t *testing.T, tb *Table, p Predicate) []uint32 {
	t.Helper()
	rows, _, err := tb.Index(p.Col).Lookup(p)
	if err != nil {
		t.Fatal(err)
	}
	return rows.AppendTo(nil)
}
