package engine

import (
	"slices"
	"sync"
)

// rowSet collects the row ids an index scan produces in index order (key
// order for a B-tree, tile order for an R-tree) and hands them back as a
// Posting in row-id order — the "bitmap index scan" posting-list consumers
// need for intersection. Rows are marked in a bitset, which is itself the
// posting list when it is the smaller encoding and is otherwise swept out
// with bits.TrailingZeros64: linear in matches plus table words where a
// comparison sort is n·log n with a poorly predicted branch per compare.
//
// Sets too small (or too sparse against the table) to be worth a sweep never
// touch the bitset: the first sortBelow rows are only buffered, and a scan
// that ends inside that buffer is ordered with slices.Sort. One rule covers
// both "tiny" and "very sparse" — the threshold grows with the table.
//
// Row ids within one index are distinct (one entry per table row), which is
// what makes a bitset a faithful ordering device here.
//
// Sets are pooled; posting returns the set to the pool with every bit clear
// or its bitset handed out, so a steady-state lookup allocates only the
// storage it returns.
type rowSet struct {
	words     []uint64 // bitset over row ids; all zero between uses
	pend      []uint32 // rows buffered while the set may still be sorted
	sortBelow int      // buffer this many rows before switching to marking
	marking   bool
	n         int // rows marked (excludes pend while !marking)
}

// rowSetMinSort is the smallest sort threshold: below it a sort beats even a
// sweep of a tiny table's bitset.
const rowSetMinSort = 32

var rowSetPool = sync.Pool{New: func() any { return new(rowSet) }}

// getRowSet checks out an empty set sized for row ids below nbits. The size
// is a hint, not a contract: add grows the bitset on a larger id.
func getRowSet(nbits int) *rowSet {
	s := rowSetPool.Get().(*rowSet)
	nw := (nbits + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	}
	s.words = s.words[:nw]
	// A sort of n rows costs about n·log2(n) compares against one pass over
	// nw words: the crossover sits near nw/32 for the sizes that matter.
	s.sortBelow = max(rowSetMinSort, nw/32)
	s.pend = s.pend[:0]
	s.marking = false
	s.n = 0
	return s
}

// add records one row id.
func (s *rowSet) add(row uint32) {
	if !s.marking {
		if len(s.pend) < s.sortBelow {
			s.pend = append(s.pend, row)
			return
		}
		s.marking = true
		for _, r := range s.pend {
			s.mark(r)
		}
	}
	s.mark(row)
}

func (s *rowSet) mark(row uint32) {
	w := int(row >> 6)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (row & 63)
	s.n++
}

// posting returns the collected rows and releases the set. A set that ended
// marking hands out its bitset when that is the smaller encoding and sweeps it
// into a fresh array otherwise; a buffered set is sorted into a fresh array
// (nil when empty).
func (s *rowSet) posting() Posting {
	var p Posting
	switch {
	case !s.marking:
		if len(s.pend) > 0 {
			out := slices.Clone(s.pend)
			slices.Sort(out)
			p = arrayPosting(out)
		}
	case bitmapIsSmaller(s.n, len(s.words)):
		p = bitmapPosting(s.words, s.n)
		s.words = nil // handed out: the next checkout allocates afresh
	default:
		out := make([]uint32, 0, s.n)
		for w, word := range s.words {
			if word != 0 {
				s.words[w] = 0
				out = appendWord(out, w, word)
			}
		}
		p = arrayPosting(out)
	}
	rowSetPool.Put(s)
	return p
}
