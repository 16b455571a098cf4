package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkIntersect holds intersectSortedInto on strictly increasing sets a and
// b to set intersection and to the oracle walk: the same rows, work equal to
// the walk's comparison count and to mergeWork, the scratch buffer reused,
// and a result that never aliases a or b.
func checkIntersect(a, b []uint32) error {
	want, wantWork := refIntersect(a, b)
	inB := make(map[uint32]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	var set []uint32
	for _, v := range a {
		if inB[v] {
			set = append(set, v)
		}
	}
	if !equalRows(want, set) {
		return fmt.Errorf("oracle walk %v, set intersection %v", want, set)
	}
	aCopy, bCopy := slices.Clone(a), slices.Clone(b)
	got, work := intersectSortedInto(nil, a, b)
	if !equalRows(got, want) || work != wantWork {
		return fmt.Errorf("intersectSortedInto = %v (work %d), want %v (work %d)", got, work, want, wantWork)
	}
	if n := mergeWork(a, b, len(got)); n != work {
		return fmt.Errorf("mergeWork = %d, walk counted %d", n, work)
	}
	for i := range got {
		got[i] = ^got[i]
	}
	if !equalRows(a, aCopy) || !equalRows(b, bCopy) {
		return fmt.Errorf("writing the result changed an input: the result aliases a or b")
	}
	buf := make([]uint32, 0, len(want)+1)
	got, work = intersectSortedInto(buf, a, b)
	if !equalRows(got, want) || work != wantWork {
		return fmt.Errorf("into a scratch buffer: %v (work %d), want %v (work %d)", got, work, want, wantWork)
	}
	if cap(got) == 0 || &got[:1][0] != &buf[:1][0] {
		return fmt.Errorf("intersectSortedInto did not reuse the destination buffer")
	}
	return nil
}

// idRange returns the rows lo…hi.
func idRange(lo, hi uint32) []uint32 {
	out := make([]uint32, hi-lo+1)
	for i := range out {
		out[i] = lo + uint32(i)
	}
	return out
}

// intersectRangeCases are kernel inputs where one or both sets are id ranges,
// over a table of rows 0…999; sparse holds every third row from 100 to 898.
func intersectRangeCases() []struct {
	name string
	a, b []uint32
} {
	var sparse []uint32
	for r := uint32(100); r < 900; r += 3 {
		sparse = append(sparse, r)
	}
	return []struct {
		name string
		a, b []uint32
	}{
		{"whole table", sparse, idRange(0, 999)},
		{"interior sub-range", sparse, idRange(300, 599)},
		{"one-element range, a member", sparse, []uint32{403}},
		{"one-element range, not a member", sparse, []uint32{404}},
		{"range below", sparse, idRange(0, 99)},
		{"range above", sparse, idRange(899, 999)},
		{"range straddling the first row", sparse, idRange(50, 150)},
		{"range straddling the last row", sparse, idRange(850, 950)},
		{"both ranges, overlapping", idRange(0, 499), idRange(300, 899)},
		{"both ranges, disjoint", idRange(0, 99), idRange(100, 199)},
		{"empty other", nil, idRange(0, 999)},
		{"highest row ids", []uint32{1, math.MaxUint32 - 1, math.MaxUint32}, idRange(math.MaxUint32-2, math.MaxUint32)},
	}
}

// TestIntersectSortedIDRanges: the id-range path gives the rows and the work
// of the merge walk it skips, with either argument the range.
func TestIntersectSortedIDRanges(t *testing.T) {
	for _, tc := range intersectRangeCases() {
		if err := checkIntersect(tc.a, tc.b); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err := checkIntersect(tc.b, tc.a); err != nil {
			t.Errorf("%s, swapped: %v", tc.name, err)
		}
	}
}

// TestIntersectSortedMatchesSetIntersection: property test against a map
// implementation and the oracle walk, on comparable sizes and on skewed ones
// alike; half the generated sets are id ranges.
func TestIntersectSortedMatchesSetIntersection(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func(maxLen int) []uint32 {
			n := rng.Intn(maxLen)
			if rng.Intn(2) == 0 {
				lo := uint32(rng.Intn(500))
				return idRange(lo, lo+uint32(n))
			}
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
		if err := checkIntersect(a, b); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// decodeSet reads a strictly increasing set from a first row and gaps: each
// gap byte g adds g+1 to the previous row. Decoding stops before a row would
// pass math.MaxUint32.
func decodeSet(first uint32, gaps []byte) []uint32 {
	out := []uint32{first}
	for _, g := range gaps {
		r := out[len(out)-1]
		if r > math.MaxUint32-uint32(g)-1 {
			break
		}
		out = append(out, r+uint32(g)+1)
	}
	return out
}

// encodeSet is decodeSet's inverse for a non-empty set whose gaps are at most
// 256.
func encodeSet(l []uint32) (first uint32, gaps []byte) {
	for i := 1; i < len(l); i++ {
		gaps = append(gaps, byte(l[i]-l[i-1]-1))
	}
	return l[0], gaps
}

// FuzzIntersectSorted holds intersectSortedInto to the oracle walk on
// arbitrary strictly increasing sets, one of them optionally empty. The
// id-range cases seed the corpus, so plain go test runs them.
func FuzzIntersectSorted(f *testing.F) {
	for _, tc := range intersectRangeCases() {
		if len(tc.a) == 0 {
			bFirst, bGaps := encodeSet(tc.b)
			f.Add(uint32(0), []byte(nil), bFirst, bGaps, true)
			continue
		}
		aFirst, aGaps := encodeSet(tc.a)
		bFirst, bGaps := encodeSet(tc.b)
		f.Add(aFirst, aGaps, bFirst, bGaps, false)
	}
	f.Fuzz(func(t *testing.T, aFirst uint32, aGaps []byte, bFirst uint32, bGaps []byte, emptyA bool) {
		a, b := decodeSet(aFirst, aGaps), decodeSet(bFirst, bGaps)
		if emptyA {
			a = nil
		}
		if err := checkIntersect(a, b); err != nil {
			t.Fatal(err)
		}
		if err := checkIntersect(b, a); err != nil {
			t.Fatalf("swapped: %v", err)
		}
	})
}

// BenchmarkIntersectSorted times the kernel at the list sizes a cold build
// intersects: a 1 385-row list against a 6 810-row sparse list (the merge
// walk) and against the whole 60 000-row table (the id-range path).
func BenchmarkIntersectSorted(b *testing.B) {
	const tableRows = 60_000
	rng := rand.New(rand.NewSource(1))
	sample := func(n int) []uint32 {
		rows := make([]uint32, 0, n)
		for _, r := range rng.Perm(tableRows)[:n] {
			rows = append(rows, uint32(r))
		}
		return sortedCopy(rows)
	}
	small := sample(1385)
	for _, bc := range []struct {
		name  string
		other []uint32
	}{
		{"sparse", sample(6810)},
		{"whole_table", idRange(0, tableRows-1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]uint32, 0, len(small))
			b.ReportAllocs()
			for b.Loop() {
				buf, _ = intersectSortedInto(buf[:0], small, bc.other)
			}
		})
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
