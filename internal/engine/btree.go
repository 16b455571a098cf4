package engine

import "sort"

// btreeOrder is the maximum number of keys per B+-tree node.
const btreeOrder = 64

// BTree is a B+-tree index over float64 keys mapping to row ids. Integer and
// timestamp keys are converted to float64 (exact below 2^53, which covers
// unix-millisecond timestamps and all generated values). Duplicate keys are
// supported; entries with equal keys are ordered by row id.
type BTree struct {
	root *btreeNode
	size int
}

type btreeEntry struct {
	key float64
	row uint32
}

type btreeNode struct {
	leaf     bool
	keys     []float64    // separator keys (internal) or entry keys (leaf)
	children []*btreeNode // internal nodes only
	rows     []uint32     // leaf nodes only, parallel to keys
	next     *btreeNode   // leaf-level linked list
}

// NewBTree bulk-loads a B+-tree from unsorted (key,row) pairs.
func NewBTree(keys []float64, rows []uint32) *BTree {
	if len(keys) != len(rows) {
		panic("engine: NewBTree keys/rows length mismatch")
	}
	entries := make([]btreeEntry, len(keys))
	for i := range keys {
		entries[i] = btreeEntry{key: keys[i], row: rows[i]}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		return entries[i].row < entries[j].row
	})
	t := &BTree{size: len(entries)}
	t.root = bulkLoad(entries)
	return t
}

// bulkLoad builds the tree bottom-up from sorted entries.
func bulkLoad(entries []btreeEntry) *btreeNode {
	// Build leaves.
	var leaves []*btreeNode
	for start := 0; start < len(entries); start += btreeOrder {
		end := start + btreeOrder
		if end > len(entries) {
			end = len(entries)
		}
		leaf := &btreeNode{leaf: true}
		for _, e := range entries[start:end] {
			leaf.keys = append(leaf.keys, e.key)
			leaf.rows = append(leaf.rows, e.row)
		}
		leaves = append(leaves, leaf)
	}
	if len(leaves) == 0 {
		return &btreeNode{leaf: true}
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	// Build internal levels.
	level := leaves
	for len(level) > 1 {
		var parents []*btreeNode
		for start := 0; start < len(level); start += btreeOrder {
			end := start + btreeOrder
			if end > len(level) {
				end = len(level)
			}
			p := &btreeNode{}
			for _, child := range level[start:end] {
				p.children = append(p.children, child)
				p.keys = append(p.keys, firstKey(child))
			}
			parents = append(parents, p)
		}
		level = parents
	}
	return level[0]
}

func firstKey(n *btreeNode) float64 {
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return 0
	}
	return n.keys[0]
}

// Len returns the number of entries in the tree.
func (t *BTree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *BTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// Insert adds one (key,row) entry, splitting nodes as needed.
func (t *BTree) Insert(key float64, row uint32) {
	t.size++
	newChild, splitKey := t.root.insert(key, row)
	if newChild != nil {
		root := &btreeNode{
			keys:     []float64{firstKey(t.root), splitKey},
			children: []*btreeNode{t.root, newChild},
		}
		t.root = root
	}
}

// insert returns a new right sibling and its first key when the node splits.
func (n *btreeNode) insert(key float64, row uint32) (*btreeNode, float64) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool {
			return n.keys[i] > key || (n.keys[i] == key && n.rows[i] >= row)
		})
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rows = append(n.rows, 0)
		copy(n.rows[i+1:], n.rows[i:])
		n.rows[i] = row
		if len(n.keys) <= btreeOrder {
			return nil, 0
		}
		mid := len(n.keys) / 2
		right := &btreeNode{leaf: true, next: n.next}
		right.keys = append(right.keys, n.keys[mid:]...)
		right.rows = append(right.rows, n.rows[mid:]...)
		n.keys = n.keys[:mid]
		n.rows = n.rows[:mid]
		n.next = right
		return right, right.keys[0]
	}
	// Internal: find child whose range contains key.
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	if i > 0 {
		i--
	}
	newChild, splitKey := n.children[i].insert(key, row)
	if newChild == nil {
		return nil, 0
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+2:], n.keys[i+1:])
	n.keys[i+1] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.children) <= btreeOrder {
		return nil, 0
	}
	mid := len(n.children) / 2
	right := &btreeNode{}
	right.keys = append(right.keys, n.keys[mid:]...)
	right.children = append(right.children, n.children[mid:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid]
	return right, right.keys[0]
}

// Visit calls fn for every entry with key in [lo, hi], in key order (ties in
// row-id order), without materializing row ids. It returns the number of
// index entries and nodes touched during the scan (for costing): one per node
// on the root→leaf descent, one per leaf slot examined, including the slot
// that ends the scan by exceeding hi. fn returning false stops the scan; the
// stopping entry has already been counted.
//
// Duplicate keys may span node boundaries: the child *before* the first
// separator ≥ lo can still hold entries equal to lo in its tail, so the
// descent goes there and relies on the leaf chain to move forward.
//
// The materializing Range scan lives in btree_oracle_test.go as an
// independent implementation: it is the reference the Visit and
// Index.Lookup differential tests compare against.
func (t *BTree) Visit(lo, hi float64, fn func(row uint32) bool) (entries int) {
	n := t.root
	entries++ // root visit
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
		if i > 0 {
			i--
		}
		n = n.children[i]
		entries++
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
	for n != nil {
		for ; i < len(n.keys); i++ {
			entries++
			if n.keys[i] > hi {
				return entries
			}
			if !fn(n.rows[i]) {
				return entries
			}
		}
		n = n.next
		i = 0
	}
	return entries
}

// CountRange returns the number of entries with key in [lo, hi] without
// materializing row ids (used for true-selectivity computation). Built on
// Visit, it is allocation-free.
func (t *BTree) CountRange(lo, hi float64) int {
	n := 0
	t.Visit(lo, hi, func(uint32) bool { n++; return true })
	return n
}
