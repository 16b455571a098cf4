package engine

import "slices"

// One accounting for index access. An index plan's work splits into three
// phases, and each phase's counters are a function of row-id lists:
//
//   - lookups: IndexEntries is what the index scans report;
//   - intersection: the hinted posting lists are intersected smallest first,
//     and IntersectOps is what a merge walk of each pair compares, given by
//     mergeWork whichever kernel the pair's encodings select (posting.go);
//   - fetch: the intersection's rows are fetched and tested against the
//     residual predicates in query order, each predicate only on the rows
//     every earlier one passed. So with stage j the rows surviving the first
//     j residuals, RowsFetched = |stage 0| and PredEvals = Σ |stage j| over
//     every stage but the last (chargeFetch).
//
// The executor counts the stage sizes by testing rows; a Counter takes them
// from intersections of posting lists, which never touches a row. Both charge
// them through the same functions, so the virtual clock has one cost model.

// sortByLen orders xs (lists, or positions standing for them) by list length,
// shortest first. Executor and Counter sort with the same call, so they break
// ties between equal lengths the same way.
func sortByLen[T any](xs []T, length func(T) int) {
	slices.SortFunc(xs, func(a, b T) int { return length(a) - length(b) })
}

// intersectLists intersects lists smallest first and returns the rows in all
// of them with the merge comparisons charged. The smallest list is the
// accumulator, swept into a scratch buffer when it is a bitmap; every later
// list is merged into it (an array) or probed (a bitmap), alternating between
// two buffers so a merge never writes over its own input. It reorders lists.
func intersectLists(lists []Posting) (acc []uint32, ops int) {
	sortByLen(lists, Posting.Len)
	var bufA, bufB []uint32
	acc = lists[0].ids
	if lists[0].bits != nil {
		bufB = lists[0].AppendTo(nil)
		acc = bufB
	}
	useA := true
	for _, l := range lists[1:] {
		buf := &bufB
		if useA {
			buf = &bufA
		}
		var work int
		*buf, work = intersectInto((*buf)[:0], acc, l)
		acc = *buf
		useA = !useA
		ops += work
	}
	return acc, ops
}

// chargeFetch charges an index plan's fetch phase from its stage sizes:
// sizes[0] rows were fetched and sizes[j] passed the first j residual
// predicates, so sizes[len-1] is the phase's output.
func (s *ExecStats) chargeFetch(sizes []int) {
	s.RowsFetched += sizes[0]
	for _, n := range sizes[:len(sizes)-1] {
		s.PredEvals += n
	}
}

// price sets the virtual time of one execution of q's plan (positions, join)
// on t: the cost model over the counters at t's scale, times the plan's
// deterministic noise.
func (db *DB) price(s *ExecStats, t *Table, q *Query, positions []int, join JoinMethod) {
	s.SimMs = db.Profile.Cost.simMs(*s, t.ScaleFactor)
	s.SimMs *= db.Profile.noiseFactor(db.Seed, planFingerprint(q, positions, join))
}

// Counter prices the plans of one query without fetching a row. For an exact
// single-table query each of whose predicates has an index that serves it,
// every ExecStats counter of every plan is a function of the predicates'
// posting lists:
//
//   - a sequential scan charges one row per table row and outputs the rows in
//     every list;
//   - an index plan charges the three phases above, its stages being the
//     hinted lists' intersection narrowed by each residual predicate's list
//     in query order.
//
// All of these are intersections of some subset of the lists, and a query's
// plans keep asking for the same subsets, so the Counter computes each one
// once. This is Maliva's Accurate-QTE taken literally: knowing the exact
// selectivities is knowing the exact cost. The intersection of every list is
// also the answer itself, which Result hands out without executing a plan.
//
// A Counter is not safe for concurrent use.
type Counter struct {
	db      *DB
	q       *Query
	t       *Table
	lists   []Posting          // each predicate's posting list, query order
	entries []int              // each lookup's index entries touched
	inter   map[uint64]Posting // predicate mask → rows in all its lists
}

// NewCounter looks up q's posting lists through cache (nil: straight to the
// indexes) and returns a Counter for q's plans, or nil when q is not
// countable: a join, a LIMIT, a sample table, more than 64 predicates, or a
// predicate no index serves. Those are executed instead.
func (db *DB) NewCounter(q *Query, cache *LookupCache) *Counter {
	t := db.Tables[q.Table]
	if t == nil || q.Join != nil || q.Limit > 0 || q.SamplePercent > 0 || len(q.Preds) > 64 {
		return nil
	}
	c := &Counter{
		db: db, q: q, t: t,
		lists:   make([]Posting, len(q.Preds)),
		entries: make([]int, len(q.Preds)),
		inter:   make(map[uint64]Posting),
	}
	for i, p := range q.Preds {
		ix := t.Index(p.Col)
		if ix == nil {
			return nil
		}
		rows, n, err := cache.lookup(t, ix, p)
		if err != nil {
			return nil
		}
		c.lists[i], c.entries[i] = rows, n
	}
	return c
}

// Stats returns the ExecStats — SimMs included — that RunCached(q, h, cache)
// reports for the Counter's query. ok is false on a nil Counter and for a
// hint the executor rejects; the caller executes those instead.
func (c *Counter) Stats(h Hint) (stats ExecStats, ok bool) {
	if c == nil {
		return ExecStats{}, false
	}
	positions, join := c.db.resolvePlan(c.q, h)
	all := uint64(1)<<uint(len(c.lists)) - 1
	if len(positions) == 0 {
		stats.RowsScanned = c.t.Rows
		stats.RowsOutput = c.t.Rows
		if all != 0 {
			stats.RowsOutput = c.rows(all).Len()
		}
		c.db.price(&stats, c.t, c.q, positions, join)
		return stats, true
	}
	for _, pos := range positions {
		if pos < 0 || pos >= len(c.lists) {
			return ExecStats{}, false
		}
	}
	// The executor's walk, one list at a time in its order; each step's
	// result is the intersection of the lists merged so far.
	var orderBuf [8]int
	order := append(orderBuf[:0], positions...)
	sortByLen(order, func(p int) int { return c.lists[p].n })
	used := uint64(1) << uint(order[0])
	stats.IndexEntries = c.entries[order[0]]
	for _, pos := range order[1:] {
		next := used | 1<<uint(pos)
		stats.IndexEntries += c.entries[pos]
		stats.IntersectOps += mergeWork(c.rows(used), c.lists[pos], c.rows(next).Len())
		used = next
	}
	var sizeBuf [8]int
	sizes := append(sizeBuf[:0], c.rows(used).Len())
	for i := range c.lists {
		if used&(1<<uint(i)) == 0 {
			used |= 1 << uint(i)
			sizes = append(sizes, c.rows(used).Len())
		}
	}
	stats.chargeFetch(sizes)
	stats.RowsOutput = sizes[len(sizes)-1]
	c.db.price(&stats, c.t, c.q, positions, join)
	return stats, true
}

// rows returns the rows in every posting list of mask (non-zero), computing
// each subset's intersection once: the mask's longest list is intersected
// with the rest's (memoized) intersection.
func (c *Counter) rows(mask uint64) Posting {
	longest := -1
	for i := range c.lists {
		if mask&(1<<uint(i)) != 0 && (longest < 0 || c.lists[i].n >= c.lists[longest].n) {
			longest = i
		}
	}
	rest := mask &^ (1 << uint(longest))
	if rest == 0 {
		return c.lists[longest]
	}
	if r, ok := c.inter[mask]; ok {
		return r
	}
	r, _ := intersect(c.rows(rest), c.lists[longest])
	c.inter[mask] = r
	return r
}

// Result returns what RunCached returns for every exact plan of the Counter's
// query — by the determinism contract they all return the same answer — from
// the intersection the Counter already holds: the matching rows ascending,
// the projected point column's points, and weight 1. Its slices are freshly
// allocated and never alias a posting list.
func (c *Counter) Result() *Result {
	res := &Result{Weight: 1}
	if len(c.lists) == 0 {
		// No predicate: every row matches.
		for r := range c.t.Rows {
			res.RowIDs = append(res.RowIDs, uint32(r))
		}
	} else if rows := c.rows(uint64(1)<<uint(len(c.lists)) - 1); rows.Len() > 0 {
		res.RowIDs = rows.AppendTo(make([]uint32, 0, rows.Len()))
	}
	if points := pointColumn(c.t, c.q); points != nil && len(res.RowIDs) > 0 {
		res.Points = make([]Point, len(res.RowIDs))
		for i, r := range res.RowIDs {
			res.Points[i] = points[r]
		}
	}
	return res
}
