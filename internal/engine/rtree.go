package engine

import (
	"math"
	"sort"
)

// rtreeFanout is the maximum number of entries per R-tree node.
const rtreeFanout = 64

// RTree is a spatial index over points, bulk-loaded with the
// Sort-Tile-Recursive (STR) algorithm. It answers box queries and reports the
// amount of work done so the executor can cost index scans.
type RTree struct {
	root *rtreeNode
	size int
}

type rtreeNode struct {
	leaf     bool
	box      Rect
	children []*rtreeNode // internal
	points   []Point      // leaf, parallel to rows
	rows     []uint32     // leaf
}

// NewRTree bulk-loads an R-tree from points; rows[i] is the row id of
// points[i].
func NewRTree(points []Point, rows []uint32) *RTree {
	if len(points) != len(rows) {
		panic("engine: NewRTree points/rows length mismatch")
	}
	t := &RTree{size: len(points)}
	if len(points) == 0 {
		t.root = &rtreeNode{leaf: true, box: Rect{}}
		return t
	}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	leaves := strPack(points, rows, idx)
	level := leaves
	for len(level) > 1 {
		level = strPackNodes(level)
	}
	t.root = level[0]
	return t
}

// strPack tiles points into leaf nodes: sort by lon, slice into vertical
// strips, sort each strip by lat, pack runs of rtreeFanout.
func strPack(points []Point, rows []uint32, idx []int) []*rtreeNode {
	sort.Slice(idx, func(a, b int) bool { return points[idx[a]].Lon < points[idx[b]].Lon })
	n := len(idx)
	leafCount := (n + rtreeFanout - 1) / rtreeFanout
	stripCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	stripSize := ((n + stripCount - 1) / stripCount)
	var leaves []*rtreeNode
	for s := 0; s < n; s += stripSize {
		e := s + stripSize
		if e > n {
			e = n
		}
		strip := idx[s:e]
		sort.Slice(strip, func(a, b int) bool { return points[strip[a]].Lat < points[strip[b]].Lat })
		for ls := 0; ls < len(strip); ls += rtreeFanout {
			le := ls + rtreeFanout
			if le > len(strip) {
				le = len(strip)
			}
			leaf := &rtreeNode{leaf: true}
			leaf.box = PointRect(points[strip[ls]])
			for _, i := range strip[ls:le] {
				leaf.points = append(leaf.points, points[i])
				leaf.rows = append(leaf.rows, rows[i])
				leaf.box = leaf.box.Extend(PointRect(points[i]))
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// strPackNodes packs child nodes into parents using the same STR tiling over
// child box centers.
func strPackNodes(nodes []*rtreeNode) []*rtreeNode {
	idx := make([]int, len(nodes))
	for i := range idx {
		idx[i] = i
	}
	center := func(i int) Point {
		b := nodes[i].box
		return Point{Lon: (b.MinLon + b.MaxLon) / 2, Lat: (b.MinLat + b.MaxLat) / 2}
	}
	sort.Slice(idx, func(a, b int) bool { return center(idx[a]).Lon < center(idx[b]).Lon })
	n := len(idx)
	parentCount := (n + rtreeFanout - 1) / rtreeFanout
	stripCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	stripSize := ((n + stripCount - 1) / stripCount)
	var parents []*rtreeNode
	for s := 0; s < n; s += stripSize {
		e := s + stripSize
		if e > n {
			e = n
		}
		strip := idx[s:e]
		sort.Slice(strip, func(a, b int) bool { return center(strip[a]).Lat < center(strip[b]).Lat })
		for ps := 0; ps < len(strip); ps += rtreeFanout {
			pe := ps + rtreeFanout
			if pe > len(strip) {
				pe = len(strip)
			}
			p := &rtreeNode{box: nodes[strip[ps]].box}
			for _, i := range strip[ps:pe] {
				p.children = append(p.children, nodes[i])
				p.box = p.box.Extend(nodes[i].box)
			}
			parents = append(parents, p)
		}
	}
	return parents
}

// Len returns the number of indexed points.
func (t *RTree) Len() int { return t.size }

// Insert adds one (point,row) entry, splitting nodes as needed. The
// insertion path is chosen by least box enlargement (ties broken by smaller
// area, then first child), and overflowing nodes split deterministically, so
// the tree shape — and therefore the entries-touched counts Search reports —
// is a pure function of the construction history. Incrementally grown trees
// are equivalent to bulk-loaded trees in *results*, not in shape, which is
// why byte-identity across replicas requires replaying the same inserts.
func (t *RTree) Insert(p Point, row uint32) {
	if t.size == 0 {
		t.root = &rtreeNode{leaf: true, box: PointRect(p), points: []Point{p}, rows: []uint32{row}}
		t.size = 1
		return
	}
	t.size++
	right := t.root.insert(p, row)
	if right != nil {
		t.root = &rtreeNode{
			box:      t.root.box.Extend(right.box),
			children: []*rtreeNode{t.root, right},
		}
	}
}

// insert descends to a leaf and returns a new right sibling when the node
// splits.
func (n *rtreeNode) insert(p Point, row uint32) *rtreeNode {
	n.box = n.box.Extend(PointRect(p))
	if n.leaf {
		n.points = append(n.points, p)
		n.rows = append(n.rows, row)
		if len(n.points) <= rtreeFanout {
			return nil
		}
		return n.splitLeaf()
	}
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, c := range n.children {
		area := c.box.Area()
		enl := c.box.Extend(PointRect(p)).Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	right := n.children[best].insert(p, row)
	if right == nil {
		return nil
	}
	n.children = append(n.children, right)
	if len(n.children) <= rtreeFanout {
		return nil
	}
	return n.splitInternal()
}

// splitLeaf halves an overflowing leaf along its longer axis, keeping the
// ordering deterministic (coordinate, then row id).
func (n *rtreeNode) splitLeaf() *rtreeNode {
	idx := make([]int, len(n.points))
	for i := range idx {
		idx[i] = i
	}
	byLon := n.box.MaxLon-n.box.MinLon >= n.box.MaxLat-n.box.MinLat
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := n.points[idx[a]], n.points[idx[b]]
		if byLon && pa.Lon != pb.Lon {
			return pa.Lon < pb.Lon
		}
		if !byLon && pa.Lat != pb.Lat {
			return pa.Lat < pb.Lat
		}
		return n.rows[idx[a]] < n.rows[idx[b]]
	})
	mid := len(idx) / 2
	take := func(part []int) (*rtreeNode, []Point, []uint32) {
		pts := make([]Point, len(part))
		rows := make([]uint32, len(part))
		nn := &rtreeNode{leaf: true, box: PointRect(n.points[part[0]])}
		for i, j := range part {
			pts[i], rows[i] = n.points[j], n.rows[j]
			nn.box = nn.box.Extend(PointRect(pts[i]))
		}
		nn.points, nn.rows = pts, rows
		return nn, pts, rows
	}
	left, lp, lr := take(idx[:mid])
	right, _, _ := take(idx[mid:])
	n.box, n.points, n.rows = left.box, lp, lr
	return right
}

// splitInternal halves an overflowing internal node by child box centers
// along the longer axis.
func (n *rtreeNode) splitInternal() *rtreeNode {
	idx := make([]int, len(n.children))
	for i := range idx {
		idx[i] = i
	}
	center := func(i int) Point {
		b := n.children[i].box
		return Point{Lon: (b.MinLon + b.MaxLon) / 2, Lat: (b.MinLat + b.MaxLat) / 2}
	}
	byLon := n.box.MaxLon-n.box.MinLon >= n.box.MaxLat-n.box.MinLat
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := center(idx[a]), center(idx[b])
		if byLon && ca.Lon != cb.Lon {
			return ca.Lon < cb.Lon
		}
		if !byLon && ca.Lat != cb.Lat {
			return ca.Lat < cb.Lat
		}
		return idx[a] < idx[b]
	})
	mid := len(idx) / 2
	take := func(part []int) *rtreeNode {
		nn := &rtreeNode{box: n.children[part[0]].box}
		nn.children = make([]*rtreeNode, len(part))
		for i, j := range part {
			nn.children[i] = n.children[j]
			nn.box = nn.box.Extend(n.children[j].box)
		}
		return nn
	}
	left := take(idx[:mid])
	right := take(idx[mid:])
	n.box, n.children = left.box, left.children
	return right
}

// Search returns the posting list of the rows whose points fall inside box,
// plus the number of node entries examined (for costing).
func (t *RTree) Search(box Rect) (rows Posting, entries int) {
	set := getRowSet(t.size)
	entries = t.root.search(box, set)
	return set.posting(), entries
}

// search adds the rows of n's subtree that fall inside box to set and returns
// the entries examined: one per visited node, one per leaf point tested.
func (n *rtreeNode) search(box Rect, set *rowSet) (entries int) {
	entries = 1
	if !n.box.Intersects(box) {
		return entries
	}
	if n.leaf {
		for i, p := range n.points {
			if box.Contains(p) {
				set.add(n.rows[i])
			}
		}
		return entries + len(n.points)
	}
	for _, c := range n.children {
		entries += c.search(box, set)
	}
	return entries
}
