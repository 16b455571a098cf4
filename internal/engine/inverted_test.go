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
	if n := mergeWork(arrayPosting(a), arrayPosting(b), len(got)); n != work {
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

// maxBitmapRow bounds the row ids the tests encode as bitmaps, keeping a
// fuzzed bitmap (and a popcount rank over it) at table size.
const maxBitmapRow = 1 << 16

// sameStorage reports whether postings a and b share their backing storage.
func sameStorage(a, b Posting) bool {
	if a.bits != nil {
		return b.bits != nil && &a.bits[0] == &b.bits[0]
	}
	return len(a.ids) > 0 && len(b.ids) > 0 && &a.ids[0] == &b.ids[0]
}

// toBitmap encodes the non-empty strictly increasing set l as a bitmap of
// pad words beyond the one its last row needs.
func toBitmap(l []uint32, pad int) Posting {
	words := make([]uint64, int(l[len(l)-1]>>6)+1+pad)
	for _, r := range l {
		words[r>>6] |= 1 << (r & 63)
	}
	return bitmapPosting(words, len(l))
}

// encodings returns the strictly increasing set l in every encoding a test
// can hold it in: the array, and for a non-empty set of small enough rows a
// bitmap sized to its last row and one padded past it (a table's tail).
func encodings(l []uint32) []Posting {
	out := []Posting{arrayPosting(l)}
	if len(l) > 0 && l[len(l)-1] < maxBitmapRow {
		out = append(out, toBitmap(l, 0), toBitmap(l, 3))
	}
	return out
}

// checkPostings holds every intersection kernel to the oracle walk on
// strictly increasing sets a and b, over all four encoding pairs: the rows,
// their count and last row, the work, fresh storage that never aliases an
// input, and the executor's scratch-buffer kernel for an array left side.
// countUpTo is held to a linear count on each encoding.
func checkPostings(a, b []uint32) error {
	want, wantWork := refIntersect(a, b)
	for _, ea := range encodings(a) {
		if err := checkCountUpTo(ea, a, b); err != nil {
			return err
		}
		for _, eb := range encodings(b) {
			label := fmt.Sprintf("%s × %s", encName(ea), encName(eb))
			got, work := intersect(ea, eb)
			rows := got.AppendTo(nil)
			if !equalRows(rows, want) || got.Len() != len(want) || work != wantWork {
				return fmt.Errorf("%s: intersect = %v (len %d, work %d), want %v (work %d)", label, rows, got.Len(), work, want, wantWork)
			}
			if len(want) > 0 && got.last != want[len(want)-1] {
				return fmt.Errorf("%s: last = %d, want %d", label, got.last, want[len(want)-1])
			}
			if got.bits != nil && !bitmapIsSmaller(got.n, len(got.bits)) {
				return fmt.Errorf("%s: %d rows kept as a %d-word bitmap, the larger encoding", label, got.n, len(got.bits))
			}
			if sameStorage(got, ea) || sameStorage(got, eb) {
				return fmt.Errorf("%s: the result aliases an input", label)
			}
			if ea.bits != nil {
				continue
			}
			buf := make([]uint32, 0, len(a)+1) // room for every row of a, as a probe needs
			into, work := intersectInto(buf, a, eb)
			if !equalRows(into, want) || work != wantWork {
				return fmt.Errorf("%s: intersectInto = %v (work %d), want %v (work %d)", label, into, work, want, wantWork)
			}
			if cap(into) == 0 || &into[:1][0] != &buf[:1][0] {
				return fmt.Errorf("%s: intersectInto did not reuse the destination buffer", label)
			}
		}
	}
	return nil
}

// checkCountUpTo holds countUpTo on p, an encoding of l, to a linear count at
// both ends of the ids and at rows of l and of other and their neighbours —
// every row of a short set, an even spread of about a hundred of a long one.
func checkCountUpTo(p Posting, l, other []uint32) error {
	probes := []uint32{0, math.MaxUint32}
	rows := slices.Concat(l, other)
	for i := 0; i < len(rows); i += 1 + len(rows)/100 {
		r := rows[i]
		probes = append(probes, r, r-1, r+1)
	}
	slices.Sort(probes)
	want := 0 // rows of l ≤ m, counted by one walk in step with the probes
	for _, m := range probes {
		for want < len(l) && l[want] <= m {
			want++
		}
		if got := countUpTo(p, m); got != want {
			return fmt.Errorf("%s: countUpTo(%d) = %d, want %d", encName(p), m, got, want)
		}
	}
	return nil
}

func encName(p Posting) string {
	if p.bits != nil {
		return fmt.Sprintf("bitmap(%d words)", len(p.bits))
	}
	return "array"
}

// postingCases are kernel inputs for the bitmap encodings over a table of
// rows 0…999: dense lists, an empty one, the whole table, and a bitmap
// shorter than the other list's rows (probes beyond its length).
func postingCases() []struct {
	name string
	a, b []uint32
} {
	every := func(step, lo, hi uint32) []uint32 {
		var out []uint32
		for r := lo; r <= hi; r += step {
			out = append(out, r)
		}
		return out
	}
	return []struct {
		name string
		a, b []uint32
	}{
		{"dense × dense", every(2, 0, 998), every(3, 1, 997)},
		{"sparse × dense", every(97, 5, 990), every(2, 0, 998)},
		{"dense × whole table", every(3, 0, 999), idRange(0, 999)},
		{"empty × dense", nil, every(2, 0, 998)},
		{"beyond length", every(2, 0, 100), every(5, 0, 995)},
		{"disjoint words", every(2, 0, 300), every(2, 501, 999)},
	}
}

// TestIntersectPostings: every kernel, on every encoding pair, gives the rows
// and the work of the merge walk, on the id-range cases and the dense ones.
func TestIntersectPostings(t *testing.T) {
	for _, tc := range slices.Concat(intersectRangeCases(), postingCases()) {
		if err := checkPostings(tc.a, tc.b); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err := checkPostings(tc.b, tc.a); err != nil {
			t.Errorf("%s, swapped: %v", tc.name, err)
		}
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

// FuzzIntersectSorted holds every intersection kernel, on all four encoding
// pairs, and countUpTo to the oracle walk on arbitrary strictly increasing
// sets, one of them optionally empty. The id-range and posting cases seed the
// corpus, so plain go test runs them.
func FuzzIntersectSorted(f *testing.F) {
	for _, tc := range slices.Concat(intersectRangeCases(), postingCases()) {
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
		if err := checkPostings(a, b); err != nil {
			t.Fatal(err)
		}
		if err := checkPostings(b, a); err != nil {
			t.Fatalf("swapped: %v", err)
		}
	})
}

// BenchmarkIntersectSorted times the kernels at the list sizes a cold build
// intersects, over a 60 000-row table: a 1 385-row array against a 6 810-row
// array (the merge walk), against the whole table as an array (the id-range
// path) and against the 6 810 rows as a bitmap (the probe); and the 6 810-row
// bitmap against the whole table as a bitmap (the word AND, which allocates
// its result as a Counter's intersections do).
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
	small, mid, whole := sample(1385), sample(6810), idRange(0, tableRows-1)
	const words = (tableRows + 63) / 64
	for _, bc := range []struct {
		name  string
		other Posting
	}{
		{"sparse", arrayPosting(mid)},
		{"whole_table", arrayPosting(whole)},
		{"array_bitmap", toBitmap(mid, words-1-int(mid[len(mid)-1]>>6))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]uint32, 0, len(small))
			b.ReportAllocs()
			for b.Loop() {
				buf, _ = intersectInto(buf[:0], small, bc.other)
			}
		})
	}
	b.Run("bitmap_bitmap", func(b *testing.B) {
		x, y := toBitmap(mid, words-1-int(mid[len(mid)-1]>>6)), toBitmap(whole, 0)
		b.ReportAllocs()
		for b.Loop() {
			intersect(x, y)
		}
	})
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
