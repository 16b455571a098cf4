package engine

import "slices"

// InvertedIndex maps word ids to sorted posting lists of row ids, the access
// path behind "Content contains <keyword>" predicates.
type InvertedIndex struct {
	postings map[uint32][]uint32
	entries  int // total number of postings
}

// NewInvertedIndex builds the index from a tokenized text column.
func NewInvertedIndex(texts [][]uint32) *InvertedIndex {
	idx := &InvertedIndex{postings: make(map[uint32][]uint32)}
	for row, tokens := range texts {
		for _, w := range tokens {
			idx.postings[w] = append(idx.postings[w], uint32(row))
		}
		idx.entries += len(tokens)
	}
	return idx
}

// AppendRow indexes one new row's tokens. Rows must be appended in
// increasing row-id order (the ingest path appends at the table tail), which
// preserves the sorted-posting-list invariant without re-sorting.
func (idx *InvertedIndex) AppendRow(row uint32, tokens []uint32) {
	for _, w := range tokens {
		idx.postings[w] = append(idx.postings[w], row)
	}
	idx.entries += len(tokens)
}

// Lookup returns the sorted posting list for word (shared, do not mutate)
// and the number of entries scanned. Rows are appended in row order during
// construction, so lists are already sorted.
func (idx *InvertedIndex) Lookup(word uint32) (rows []uint32, entries int) {
	p := idx.postings[word]
	return p, len(p) + 1
}

// PostingLen returns the length of word's posting list.
func (idx *InvertedIndex) PostingLen(word uint32) int {
	return len(idx.postings[word])
}

// Len returns the total number of postings across all words.
func (idx *InvertedIndex) Len() int { return idx.entries }

// DistinctWords returns the number of distinct indexed words.
func (idx *InvertedIndex) DistinctWords() int { return len(idx.postings) }

// AvgPostingLen returns the average posting-list length — the (deliberately
// crude) statistic the optimizer uses to estimate keyword selectivity.
func (idx *InvertedIndex) AvgPostingLen() float64 {
	if len(idx.postings) == 0 {
		return 0
	}
	return float64(idx.entries) / float64(len(idx.postings))
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
		hi := lo + countUpTo(other[lo:], r[len(r)-1])
		return append(dst, other[lo:hi]...), mergeWork(a, b, hi-lo)
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

// mergeWork returns the comparisons the merge walk of intersectSortedInto
// makes on sorted sets a and b, given that n rows are in both, without
// walking them. The walk stops as soon as either list runs out, so it
// consumes every element up to the smaller of the two last elements, m, and a
// match consumes one element of each list in one comparison:
// |{a ≤ m}| + |{b ≤ m}| − n comparisons.
func mergeWork(a, b []uint32, n int) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	m := min(a[len(a)-1], b[len(b)-1])
	return countUpTo(a, m) + countUpTo(b, m) - n
}

// countUpTo returns how many rows of the sorted list l are ≤ m.
func countUpTo(l []uint32, m uint32) int {
	if len(l) > 0 && l[len(l)-1] <= m {
		return len(l)
	}
	n, found := slices.BinarySearch(l, m)
	if found {
		n++
	}
	return n
}
