package engine

import (
	"math/bits"
	"slices"
	"sync"
)

// rowSet collects the row ids an index scan produces in index order (key
// order for a B-tree, tile order for an R-tree) and hands them back in
// row-id order — the "bitmap index scan" posting-list consumers need for
// merge intersection. Rows are marked in a bitset and swept out with
// bits.TrailingZeros64, which is linear in matches plus table words where a
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
// Sets are pooled; drain returns the set to the pool with every bit clear, so
// a steady-state lookup allocates only the slice it returns.
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

// drain returns the collected rows in ascending order in a freshly allocated
// slice (nil when empty) and releases the set.
func (s *rowSet) drain() []uint32 {
	var out []uint32
	if !s.marking {
		if len(s.pend) > 0 {
			out = slices.Clone(s.pend)
			slices.Sort(out)
		}
	} else {
		out = make([]uint32, s.n)
		i := 0
		for w, word := range s.words {
			if word == 0 {
				continue
			}
			s.words[w] = 0
			base := uint32(w) << 6
			for word != 0 {
				out[i] = base + uint32(bits.TrailingZeros64(word))
				i++
				word &= word - 1
			}
		}
		out = out[:i]
	}
	rowSetPool.Put(s)
	return out
}
