package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInvertedIndexPostings(t *testing.T) {
	texts := [][]uint32{
		{1, 2, 3},
		{2, 3},
		{3},
		{},
		{1, 3},
	}
	idx := NewInvertedIndex(texts)
	cases := []struct {
		word uint32
		want []uint32
	}{
		{1, []uint32{0, 4}},
		{2, []uint32{0, 1}},
		{3, []uint32{0, 1, 2, 4}},
		{99, nil},
	}
	for _, tc := range cases {
		rows, entries := idx.Lookup(tc.word)
		if !equalRows(rows, tc.want) {
			t.Errorf("Lookup(%d) = %v, want %v", tc.word, rows, tc.want)
		}
		if entries != len(rows)+1 {
			t.Errorf("Lookup(%d) entries = %d, want %d", tc.word, entries, len(rows)+1)
		}
		if idx.PostingLen(tc.word) != len(tc.want) {
			t.Errorf("PostingLen(%d) = %d", tc.word, idx.PostingLen(tc.word))
		}
	}
	if idx.Len() != 8 {
		t.Errorf("Len = %d, want 8", idx.Len())
	}
	if idx.DistinctWords() != 3 {
		t.Errorf("DistinctWords = %d, want 3", idx.DistinctWords())
	}
	if got := idx.AvgPostingLen(); got < 2.66 || got > 2.67 {
		t.Errorf("AvgPostingLen = %v, want 8/3", got)
	}
}

// TestIntersectSortedMatchesSetIntersection: property test against a map
// implementation, with mergeWork equal to the comparisons the walk counts —
// on comparable sizes and on skewed ones alike.
func TestIntersectSortedMatchesSetIntersection(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func(maxLen int) []uint32 {
			n := rng.Intn(maxLen)
			set := make(map[uint32]bool, n)
			for i := 0; i < n; i++ {
				set[uint32(rng.Intn(500))] = true
			}
			out := make([]uint32, 0, len(set))
			for v := range set {
				out = append(out, v)
			}
			return sortedCopy(out)
		}
		a, b := gen(300), gen(300)
		if seed%2 == 0 {
			a = gen(20)
		}
		got, work := intersectSortedInto(nil, a, b)
		if mergeWork(a, b, len(got)) != work {
			return false
		}
		inB := make(map[uint32]bool, len(b))
		for _, v := range b {
			inB[v] = true
		}
		var want []uint32
		for _, v := range a {
			if inB[v] {
				want = append(want, v)
			}
		}
		return equalRows(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortTokens(t *testing.T) {
	got := SortTokens([]uint32{5, 1, 5, 3, 1})
	if !equalRows(got, []uint32{1, 3, 5}) {
		t.Errorf("SortTokens = %v", got)
	}
	if got := SortTokens(nil); len(got) != 0 {
		t.Errorf("SortTokens(nil) = %v", got)
	}
	if got := SortTokens([]uint32{7}); !equalRows(got, []uint32{7}) {
		t.Errorf("SortTokens single = %v", got)
	}
}

// TestHasToken: membership agrees with a linear scan for random inputs.
func TestHasToken(t *testing.T) {
	prop := func(raw []uint32, probe uint32) bool {
		tokens := SortTokens(append([]uint32(nil), raw...))
		want := false
		for _, v := range tokens {
			if v == probe {
				want = true
			}
		}
		return HasToken(tokens, probe) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVocab(t *testing.T) {
	v := NewVocab()
	a := v.Intern("alpha")
	b := v.Intern("beta")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("Intern ids: %d %d", a, b)
	}
	if v.Intern("alpha") != a {
		t.Error("re-Intern changed id")
	}
	if v.ID("alpha") != a || v.ID("missing") != 0 {
		t.Error("ID lookup misbehaves")
	}
	if v.Word(a) != "alpha" || v.Word(9999) != "" {
		t.Error("Word lookup misbehaves")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
}
