package engine

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
