package engine

import "sort"

// Range returns the row ids of entries with key in [lo, hi] in key order,
// plus the number of index entries and nodes touched during the scan. It is
// the materializing scan production code used before Index.Lookup marked row
// sets straight from Visit, kept here — deliberately sharing no code with
// Visit — as the oracle its differential tests compare against.
func (t *BTree) Range(lo, hi float64) (rows []uint32, entries int) {
	n := t.root
	entries++ // root visit
	for !n.leaf {
		// Duplicate keys may span node boundaries: the child *before* the
		// first separator ≥ lo can still hold entries equal to lo in its
		// tail, so descend there and rely on the leaf chain to move forward.
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
		if i > 0 {
			i--
		}
		n = n.children[i]
		entries++
	}
	// Walk the leaf chain.
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
	for n != nil {
		for ; i < len(n.keys); i++ {
			entries++
			if n.keys[i] > hi {
				return rows, entries
			}
			rows = append(rows, n.rows[i])
		}
		n = n.next
		i = 0
	}
	return rows, entries
}
