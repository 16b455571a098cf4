package engine

import (
	"math/bits"
	"slices"
)

// Posting is a posting list: the rows one predicate matches, in one of two
// encodings — the array-or-bitmap container split of Roaring bitmaps (Chambi
// et al., 2016):
//
//   - an array: the row ids, strictly increasing;
//   - a bitmap over the table's rows: bit r%64 of word r/64 is set when row r
//     is in the list. A row id at or beyond the bitmap's length is absent.
//
// Either way the list carries its length and its last row id, so neither is
// ever walked to learn them. A tree lookup hands out whichever encoding is
// smaller (rowSet.posting); the inverted index hands out its shared arrays.
// Postings are immutable once made: caches and Counters share them.
type Posting struct {
	ids  []uint32 // the rows, when bits is nil
	bits []uint64 // the bitmap, when non-nil (never empty)
	n    int      // rows in the list
	last uint32   // largest row id; 0 when empty
}

// bitmapIsSmaller is the one size rule between the encodings: n rows cost 4
// bytes each as an array and a bitmap of words words 8 bytes a word.
func bitmapIsSmaller(n, words int) bool { return n > 2*words }

// arrayPosting wraps strictly increasing row ids.
func arrayPosting(ids []uint32) Posting {
	p := Posting{ids: ids, n: len(ids)}
	if len(ids) > 0 {
		p.last = ids[len(ids)-1]
	}
	return p
}

// bitmapPosting wraps a bitmap that holds n > 0 rows.
func bitmapPosting(words []uint64, n int) Posting {
	p := Posting{bits: words, n: n}
	for w := len(words) - 1; w >= 0; w-- {
		if words[w] != 0 {
			p.last = uint32(w)<<6 + uint32(63-bits.LeadingZeros64(words[w]))
			break
		}
	}
	return p
}

// Len returns the number of rows in the list.
func (p Posting) Len() int { return p.n }

// AppendTo appends the list's rows to dst in ascending order.
func (p Posting) AppendTo(dst []uint32) []uint32 {
	if p.bits == nil {
		return append(dst, p.ids...)
	}
	for w, word := range p.bits {
		dst = appendWord(dst, w, word)
	}
	return dst
}

// appendWord appends the rows bitmap word w holds, ascending.
func appendWord(dst []uint32, w int, word uint64) []uint32 {
	base := uint32(w) << 6
	for word != 0 {
		dst = append(dst, base+uint32(bits.TrailingZeros64(word)))
		word &= word - 1
	}
	return dst
}

// The intersection kernels, one per pair of encodings. Each returns as work
// what the merge walk of the two lists compares, mergeWork(a, b, n), which is
// exact whichever kernel ran — so IntersectOps, and with it the virtual
// clock, does not depend on the encodings.

// intersect returns the rows in both a and b as a fresh posting that never
// aliases either: for two bitmaps, their word AND in the smaller encoding;
// otherwise an array, the array side merged with or probed into the other.
func intersect(a, b Posting) (Posting, int) {
	if a.bits != nil && b.bits != nil {
		return andBitmaps(a, b)
	}
	if a.bits != nil {
		a, b = b, a
	}
	ids, work := intersectInto(make([]uint32, 0, a.n), a.ids, b)
	return arrayPosting(ids), work
}

// intersectInto appends the rows of the strictly increasing set ids that l
// holds to dst (a scratch buffer that aliases neither), allocating nothing
// once dst has room for len(ids) more rows: a merge for an array l, a probe
// for a bitmap.
func intersectInto(dst, ids []uint32, l Posting) ([]uint32, int) {
	if l.bits == nil {
		return intersectSortedInto(dst, ids, l.ids)
	}
	return probeInto(dst, ids, l)
}

// intersectSortedInto intersects strictly increasing sets a and b, appending
// the rows in both to dst (typically a reused scratch buffer with length 0),
// and returns as work what the merge walk compares (for costing), given by
// mergeWork when the range path skips the walk. dst must not alias a or b,
// and the result never does.
//
// When either set is an id range — every row from its first to its last, as
// a zoomed-out viewport or an all-time window matches — the intersection is
// the other set's rows inside that range: two binary searches and a copy.
func intersectSortedInto(dst, a, b []uint32) (out []uint32, work int) {
	r, other := a, b
	if !isIDRange(r) {
		r, other = b, a
	}
	if isIDRange(r) {
		lo, _ := slices.BinarySearch(other, r[0])
		hi := lo + idsUpTo(other[lo:], r[len(r)-1])
		return append(dst, other[lo:hi]...), mergeWork(arrayPosting(a), arrayPosting(b), hi-lo)
	}
	out = dst
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		work++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out, work
}

// isIDRange reports whether the strictly increasing set l is an id range:
// non-empty, with its last row minus its first equal to its length minus one.
func isIDRange(l []uint32) bool {
	return len(l) > 0 && l[len(l)-1]-l[0] == uint32(len(l)-1)
}

// probeInto appends to dst the rows of the strictly increasing set ids that
// the bitmap bm holds: one bit test per row within bm's length, each row
// written and kept by adding its bit to the count, so membership costs no
// branch.
func probeInto(dst, ids []uint32, bm Posting) ([]uint32, int) {
	n0 := len(dst)
	dst = slices.Grow(dst, len(ids))
	out := dst[n0 : n0+len(ids)]
	k := 0
	for _, r := range ids {
		w := int(r >> 6)
		if w >= len(bm.bits) {
			break // ids ascend: every later row is beyond the bitmap too
		}
		out[k] = r
		k += int(bm.bits[w] >> (r & 63) & 1)
	}
	return dst[:n0+k], mergeWork(arrayPosting(ids), bm, k)
}

// andBitmaps intersects bitmaps a and b: a word AND counted by popcount,
// then kept as a bitmap or swept into an array, whichever is smaller.
func andBitmaps(a, b Posting) (Posting, int) {
	words := min(len(a.bits), len(b.bits))
	n := 0
	for w := range words {
		n += bits.OnesCount64(a.bits[w] & b.bits[w])
	}
	var p Posting
	if bitmapIsSmaller(n, words) {
		and := make([]uint64, words)
		for w := range and {
			and[w] = a.bits[w] & b.bits[w]
		}
		p = bitmapPosting(and, n)
	} else {
		ids := make([]uint32, 0, n)
		for w := range words {
			ids = appendWord(ids, w, a.bits[w]&b.bits[w])
		}
		p = arrayPosting(ids)
	}
	return p, mergeWork(a, b, n)
}

// mergeWork returns the comparisons the merge walk of intersectSortedInto
// makes on lists a and b, given that n rows are in both, without walking
// them. The walk stops as soon as either list runs out, so it consumes every
// element up to the smaller of the two last elements, m, and a match consumes
// one element of each list in one comparison:
// |{a ≤ m}| + |{b ≤ m}| − n comparisons.
func mergeWork(a, b Posting, n int) int {
	if a.n == 0 || b.n == 0 {
		return 0
	}
	m := min(a.last, b.last)
	return countUpTo(a, m) + countUpTo(b, m) - n
}

// countUpTo returns how many rows of p are ≤ m: a binary search on an array,
// a popcount rank on a bitmap.
func countUpTo(p Posting, m uint32) int {
	if p.last <= m {
		return p.n
	}
	if p.bits == nil {
		return idsUpTo(p.ids, m)
	}
	w := int(m >> 6) // m < last, so w indexes the bitmap
	n := bits.OnesCount64(p.bits[w] & (uint64(2)<<(m&63) - 1))
	for _, word := range p.bits[:w] {
		n += bits.OnesCount64(word)
	}
	return n
}

// idsUpTo returns how many rows of the sorted list l are ≤ m.
func idsUpTo(l []uint32, m uint32) int {
	if len(l) > 0 && l[len(l)-1] <= m {
		return len(l)
	}
	n, found := slices.BinarySearch(l, m)
	if found {
		n++
	}
	return n
}
