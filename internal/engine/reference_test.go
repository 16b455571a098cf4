package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// The reference executor: the same query semantics and the same cost
// accounting as executor.go, written the slow, obvious way — every index scan
// materialized and comparison-sorted, every predicate tested through
// Predicate.Eval in query order, every join probe a fresh root descent,
// nothing pooled, nothing bound, nothing reordered. The differential tests
// (reference_diff_test.go) hold the production executor to it field by field:
// rows, points, flags and every ExecStats counter, SimMs included.
//
// It shares with production only what is not under test: plan resolution
// and the cost model.

// refLookup is Index.Lookup as it was before the bitset: materialize in index
// order, then sort by row id.
func refLookup(ix *Index, p Predicate) (rows []uint32, entries int, err error) {
	switch ix.Kind {
	case IndexBTree:
		if p.Kind != PredRange {
			return nil, 0, fmt.Errorf("ref: btree cannot serve %s", p.Kind)
		}
		rows, entries = ix.btree.Range(p.Lo, p.Hi)
		slices.Sort(rows)
		return rows, entries, nil
	case IndexRTree:
		if p.Kind != PredGeo {
			return nil, 0, fmt.Errorf("ref: rtree cannot serve %s", p.Kind)
		}
		rows, entries = refRTreeSearch(ix.rtree, p.Box)
		return rows, entries, nil
	case IndexInverted:
		if p.Kind != PredKeyword {
			return nil, 0, fmt.Errorf("ref: inverted index cannot serve %s", p.Kind)
		}
		rows, entries = ix.invidx.Lookup(p.Word)
		return rows, entries, nil
	}
	return nil, 0, fmt.Errorf("ref: unknown index kind %d", ix.Kind)
}

// refRTreeSearch is the recursive-closure, sort.Slice box search.
func refRTreeSearch(t *RTree, box Rect) (rows []uint32, entries int) {
	var walk func(n *rtreeNode)
	walk = func(n *rtreeNode) {
		entries++
		if !n.box.Intersects(box) {
			return
		}
		if n.leaf {
			for i, p := range n.points {
				entries++
				if box.Contains(p) {
					rows = append(rows, n.rows[i])
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows, entries
}

// refExec is one reference execution's state.
type refExec struct {
	db       *DB
	q        *Query
	t        *Table
	stats    ExecStats
	res      *Result
	baseRows []int64
	points   []Point
}

// refRun is DB.Run by the reference executor.
func (db *DB) refRun(q *Query, h Hint) (*Result, ExecStats, error) {
	t, err := db.resolveTable(q)
	if err != nil {
		return nil, ExecStats{}, err
	}
	positions, join := db.resolvePlan(q, h)
	for _, pos := range positions {
		if pos < 0 || pos >= len(q.Preds) || t.Index(q.Preds[pos].Col) == nil {
			return nil, ExecStats{}, fmt.Errorf("ref: bad hint position %d", pos)
		}
	}
	e := &refExec{db: db, q: q, t: t, res: &Result{Weight: 1}}
	if q.SamplePercent > 0 {
		e.res.Weight = 100.0 / float64(q.SamplePercent)
	}
	if t.SampleOf != nil {
		e.baseRows = t.Col("__base_row").Ints
	}
	for _, oc := range q.OutputCols {
		if t.HasColumn(oc) && t.Col(oc).Type == ColPoint {
			e.points = t.Col(oc).Points
			break
		}
	}

	earlyLimit := q.Limit
	if q.Join != nil {
		earlyLimit = 0
	}
	var candidates []uint32
	if len(positions) == 0 {
		candidates = e.seqScan(earlyLimit)
	} else if candidates, err = e.indexAccess(positions, earlyLimit); err != nil {
		return nil, ExecStats{}, err
	}
	if q.Join == nil {
		e.emitAll(candidates)
	} else if err := e.join(candidates, join); err != nil {
		return nil, ExecStats{}, err
	}
	e.stats.RowsOutput = len(e.res.RowIDs)
	e.stats.SimMs = db.Profile.Cost.simMs(e.stats, t.ScaleFactor)
	e.stats.SimMs *= db.Profile.noiseFactor(db.Seed, planFingerprint(q, positions, join))
	return e.res, e.stats, nil
}

func (e *refExec) seqScan(earlyLimit int) []uint32 {
	var out []uint32
	for r := 0; r < e.t.Rows; r++ {
		e.stats.RowsScanned++
		ok := true
		for _, p := range e.q.Preds {
			if !p.Eval(e.t, uint32(r)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, uint32(r))
			if earlyLimit > 0 && len(out) >= earlyLimit {
				e.res.Truncated = true
				break
			}
		}
	}
	return out
}

// refIntersect is the plain merge walk over sorted sets a and b: the rows in
// both, and one comparison counted per step. It is the oracle for
// intersectSortedInto, which skips the walk when either set is an id range.
func refIntersect(a, b []uint32) (out []uint32, work int) {
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

func (e *refExec) indexAccess(positions []int, earlyLimit int) ([]uint32, error) {
	var lists [][]uint32
	used := make(map[int]bool)
	for _, pos := range positions {
		rows, entries, err := refLookup(e.t.Index(e.q.Preds[pos].Col), e.q.Preds[pos])
		if err != nil {
			return nil, err
		}
		e.stats.IndexEntries += entries
		lists = append(lists, rows)
		used[pos] = true
	}
	slices.SortFunc(lists, func(a, b []uint32) int { return len(a) - len(b) })
	acc := lists[0]
	for _, l := range lists[1:] {
		var work int
		acc, work = refIntersect(acc, l)
		e.stats.IntersectOps += work
	}
	var out []uint32
	for _, r := range acc {
		e.stats.RowsFetched++
		ok := true
		for i, p := range e.q.Preds {
			if used[i] {
				continue
			}
			e.stats.PredEvals++
			if !p.Eval(e.t, r) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
			if earlyLimit > 0 && len(out) >= earlyLimit {
				e.res.Truncated = true
				break
			}
		}
	}
	return out, nil
}

func (e *refExec) emit(row uint32) {
	id := row
	if e.baseRows != nil {
		id = uint32(e.baseRows[row])
	}
	e.res.RowIDs = append(e.res.RowIDs, id)
	if e.points != nil {
		e.res.Points = append(e.res.Points, e.points[row])
	}
}

func (e *refExec) limitReached() bool {
	if e.q.Limit > 0 && len(e.res.RowIDs) >= e.q.Limit {
		e.res.Truncated = true
		return true
	}
	return false
}

func (e *refExec) emitAll(candidates []uint32) {
	for _, r := range candidates {
		e.emit(r)
		if e.limitReached() {
			return
		}
	}
}

// probe is one equality probe of the inner index by a fresh materializing
// descent, testing inner predicates in order until one inner row passes.
func (e *refExec) probe(inner *Table, ix *Index, key float64, leftRow uint32) bool {
	matches, entries := ix.btree.Range(key, key)
	e.stats.IndexEntries += entries
	for _, ir := range matches {
		pass := true
		for _, p := range e.q.Join.Preds {
			e.stats.PredEvals++
			if !p.Eval(inner, ir) {
				pass = false
				break
			}
		}
		if pass {
			e.emit(leftRow)
			return true
		}
	}
	return false
}

func (e *refExec) join(candidates []uint32, method JoinMethod) error {
	q := e.q
	inner, ok := e.db.Tables[q.Join.Table]
	if !ok {
		return fmt.Errorf("ref: unknown join table %q", q.Join.Table)
	}
	leftKeys := e.t.Col(q.Join.LeftCol)
	if method == JoinAuto {
		method = NestLoopJoin
	}
	ix := inner.Index(q.Join.RightCol)
	switch method {
	case NestLoopJoin:
		if ix == nil || ix.Kind != IndexBTree {
			return fmt.Errorf("ref: nest-loop join needs a btree index")
		}
		for _, lr := range candidates {
			e.stats.NestProbes++
			if e.probe(inner, ix, leftKeys.NumericAt(lr), lr) && e.limitReached() {
				return nil
			}
		}
	case HashJoin:
		ht := make(map[float64]struct{})
		innerKeys := inner.Col(q.Join.RightCol)
		for r := 0; r < inner.Rows; r++ {
			e.stats.RowsScanned++
			pass := true
			for _, p := range q.Join.Preds {
				if !p.Eval(inner, uint32(r)) {
					pass = false
					break
				}
			}
			if pass {
				e.stats.HashBuilds++
				ht[innerKeys.NumericAt(uint32(r))] = struct{}{}
			}
		}
		for _, lr := range candidates {
			e.stats.HashProbes++
			if _, hit := ht[leftKeys.NumericAt(lr)]; hit {
				e.emit(lr)
				if e.limitReached() {
					return nil
				}
			}
		}
	case MergeJoin:
		var left []joinKV
		for _, lr := range candidates {
			left = append(left, joinKV{leftKeys.NumericAt(lr), lr})
		}
		slices.SortFunc(left, func(a, b joinKV) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			default:
				return 0
			}
		})
		if n := float64(len(left)); n > 1 {
			e.stats.SortUnits += int(n * math.Log2(n))
		}
		if ix == nil || ix.Kind != IndexBTree {
			return fmt.Errorf("ref: merge join needs a btree index")
		}
		for _, l := range left {
			if e.probe(inner, ix, l.key, l.row) && e.limitReached() {
				return nil
			}
		}
	default:
		return fmt.Errorf("ref: unsupported join method %v", method)
	}
	return nil
}
