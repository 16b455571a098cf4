package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Result holds the rows produced by a query execution. Row ids always refer
// to the *base* table (sample-table hits are translated back), so results of
// approximate rewrites can be compared against the original for quality.
type Result struct {
	RowIDs    []uint32 // matching main-table rows (base-table ids)
	Points    []Point  // output points, parallel to RowIDs, when a point column is projected
	Truncated bool     // a LIMIT stopped execution early
	Weight    float64  // per-row weight (100/SamplePercent for samples, 1 otherwise)
}

// execContext carries state through one query execution.
type execContext struct {
	db    *DB
	q     *Query
	t     *Table // resolved table (base or sample)
	cache *LookupCache
	stats ExecStats
	res   *Result

	// Per-execution projection state, resolved once in RunCached instead of
	// once per emitted row.
	baseRows []int64 // sample → base row translation (nil for base tables)
	points   []Point // projected point column (nil when none)
}

// joinKV pairs a left row with its join key for the merge-join sort.
type joinKV struct {
	key float64
	row uint32
}

// Run executes q with hint h and returns the result plus execution stats
// including the virtual execution time. The engine follows forced hints
// exactly; with an empty hint the optimizer chooses the plan.
//
// Run is safe for concurrent use: executions only read table data and
// indexes, and the lazily-built statistics cache is mutex-protected.
func (db *DB) Run(q *Query, h Hint) (*Result, ExecStats, error) {
	return db.RunCached(q, h, nil)
}

// RunCached is Run with an optional per-workload predicate-lookup cache.
// When several plans of the same query are executed (Maliva's offline
// experience collection runs every rewritten query RQ_i), the index lookups
// for identical predicates are memoized instead of re-scanned. A nil cache
// disables memoization. The cache is safe for concurrent use.
func (db *DB) RunCached(q *Query, h Hint, cache *LookupCache) (*Result, ExecStats, error) {
	t, err := db.resolveTable(q)
	if err != nil {
		return nil, ExecStats{}, err
	}
	positions, join := db.resolvePlan(q, h)
	for _, pos := range positions {
		if pos < 0 || pos >= len(q.Preds) {
			return nil, ExecStats{}, fmt.Errorf("engine: hint position %d out of range (%d preds)", pos, len(q.Preds))
		}
		if t.Index(q.Preds[pos].Col) == nil {
			return nil, ExecStats{}, fmt.Errorf("engine: hint forces index on %q but none exists", q.Preds[pos].Col)
		}
	}
	weight := 1.0
	if q.SamplePercent > 0 {
		weight = 100.0 / float64(q.SamplePercent)
	}
	ec := &execContext{db: db, q: q, t: t, cache: cache, res: &Result{Weight: weight}, points: pointColumn(t, q)}
	if t.SampleOf != nil {
		ec.baseRows = t.Col("__base_row").Ints
	}
	candidates, err := ec.access(positions)
	if err != nil {
		return nil, ExecStats{}, err
	}
	if q.Join == nil {
		ec.emitAll(candidates)
	} else if err := ec.join(candidates, join); err != nil {
		return nil, ExecStats{}, err
	}
	ec.stats.RowsOutput = len(ec.res.RowIDs)
	db.price(&ec.stats, t, q, positions, join)
	return ec.res, ec.stats, nil
}

// pointColumn returns the point column an execution of q over t projects —
// the first point output column — or nil when none.
func pointColumn(t *Table, q *Query) []Point {
	for _, oc := range q.OutputCols {
		if t.HasColumn(oc) && t.Col(oc).Type == ColPoint {
			return t.Col(oc).Points
		}
	}
	return nil
}

// resolvePlan maps (q, h) to the physical plan an execution follows: the
// index positions and join method after the backend has had its say — a
// forced hint may be dropped, and anything unforced is the optimizer's pick.
// Together with q's own LIMIT and sample clauses these are exactly
// planFingerprint's inputs, so two executions of one query's rewrites that
// resolve alike produce the same rows, ExecStats and SimMs.
func (db *DB) resolvePlan(q *Query, h Hint) (positions []int, join JoinMethod) {
	positions, join = h.UseIndex, h.Join
	forced := h.Forced
	if forced && db.Profile.HintDropProb > 0 {
		// Challenge C2: the backend may ignore hints. Deterministic per
		// (seed, plan identity) so repeated runs agree.
		u := float64(mix64(uint64(db.Seed)^planFingerprint(q, positions, join))%100000) / 100000
		if u < db.Profile.HintDropProb {
			forced = false
		}
	}
	if !forced {
		pe := db.ChoosePlan(q)
		positions = pe.Positions
		if join == JoinAuto {
			join = pe.Join
		}
	}
	return positions, join
}

// PlanID names the physical plan one execution follows, among the rewrites
// of a single query (same table, predicates, join clause and projection): the
// resolved index positions in scan order, the resolved join method, and the
// rewrite's own LIMIT and sample clauses — planFingerprint's inputs, and so
// everything rows, ExecStats and SimMs depend on. It is comparable, so it can
// key a map.
type PlanID struct {
	Positions     string // resolved positions, comma-separated
	Join          JoinMethod
	Limit         int
	SamplePercent int
}

// ResolvePlan reports which physical plan RunCached(q, h, …) executes, without
// executing it. Callers that run many rewrites of one query (core.BuildContext)
// use it to execute each distinct plan once: an unhinted run and the forced
// hint the optimizer would have picked anyway are the same PlanID, as is every
// hint the backend drops.
func (db *DB) ResolvePlan(q *Query, h Hint) PlanID {
	id := PlanID{Limit: q.Limit, SamplePercent: q.SamplePercent}
	positions, join := db.resolvePlan(q, h)
	var buf [32]byte
	b := buf[:0]
	for _, pos := range positions {
		b = strconv.AppendInt(b, int64(pos), 10)
		b = append(b, ',')
	}
	id.Positions, id.Join = string(b), join
	return id
}

// resolveTable maps the query to its base table or sample table.
func (db *DB) resolveTable(q *Query) (*Table, error) {
	t, ok := db.Tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", q.Table)
	}
	if q.SamplePercent > 0 {
		s, ok := t.Samples[q.SamplePercent]
		if !ok {
			return nil, fmt.Errorf("engine: table %q has no %d%% sample (call BuildSample first)", q.Table, q.SamplePercent)
		}
		return s, nil
	}
	return t, nil
}

// access returns the main-table candidate rows that satisfy all predicates,
// using index scans on the given positions. With a LIMIT and no join, it
// stops early once enough rows qualify.
func (ec *execContext) access(positions []int) ([]uint32, error) {
	q, t := ec.q, ec.t
	earlyLimit := q.Limit
	if q.Join != nil {
		earlyLimit = 0 // join may reject rows; cannot stop early here
	}
	if len(positions) == 0 {
		return ec.seqScan(earlyLimit), nil
	}
	// Index scans. Predicate positions fit in a bitmask (hint masks are
	// uint32), so residual tracking needs no map.
	lists := make([]Posting, 0, len(positions))
	var usedMask uint64
	for _, pos := range positions {
		rows, entries, err := ec.cache.lookup(t, t.Index(q.Preds[pos].Col), q.Preds[pos])
		if err != nil {
			return nil, err
		}
		ec.stats.IndexEntries += entries
		lists = append(lists, rows)
		usedMask |= 1 << uint(pos)
	}
	acc, ops := intersectLists(lists)
	ec.stats.IntersectOps += ops
	// Residual predicates keep query order: PredEvals counts how far the
	// short-circuit got.
	var residual []boundPred
	for i, p := range q.Preds {
		if usedMask&(1<<uint(i)) == 0 {
			residual = append(residual, p.bind(t))
		}
	}
	// Fetch candidates, evaluate residual predicates. sizes[j] counts the
	// fetched rows that passed the first j residuals.
	sizes := make([]int, len(residual)+1)
	var out []uint32
	for _, r := range acc {
		sizes[0]++
		ok := true
		for i := range residual {
			if !residual[i].eval(r) {
				ok = false
				break
			}
			sizes[i+1]++
		}
		if ok {
			out = append(out, r)
			if earlyLimit > 0 && len(out) >= earlyLimit {
				ec.res.Truncated = true
				break
			}
		}
	}
	ec.stats.chargeFetch(sizes)
	return out, nil
}

// seqScan scans the whole table, evaluating all predicates per row. The scan
// is charged per row (RowsScanned), never per predicate evaluation, so it is
// free to test the cheap columnar predicates first.
func (ec *execContext) seqScan(earlyLimit int) []uint32 {
	t := ec.t
	preds := bindPreds(nil, t, ec.q.Preds, true)
	var out []uint32
	for r := 0; r < t.Rows; r++ {
		ec.stats.RowsScanned++
		if evalAll(preds, uint32(r)) {
			out = append(out, uint32(r))
			if earlyLimit > 0 && len(out) >= earlyLimit {
				ec.res.Truncated = true
				break
			}
		}
	}
	return out
}

// join matches candidate left rows against the inner table and emits
// qualifying rows, honoring the LIMIT.
func (ec *execContext) join(candidates []uint32, method JoinMethod) error {
	q, t := ec.q, ec.t
	inner, ok := ec.db.Tables[q.Join.Table]
	if !ok {
		return fmt.Errorf("engine: unknown join table %q", q.Join.Table)
	}
	leftKeys := t.Col(q.Join.LeftCol)
	if method == JoinAuto {
		method = NestLoopJoin
	}
	switch method {
	case NestLoopJoin:
		ix := inner.Index(q.Join.RightCol)
		if ix == nil || ix.Kind != IndexBTree {
			return fmt.Errorf("engine: nest-loop join needs a btree index on %s.%s", inner.Name, q.Join.RightCol)
		}
		preds := bindPreds(nil, inner, q.Join.Preds, false)
		for _, lr := range candidates {
			ec.stats.NestProbes++
			if ec.probeInner(ix.btree, preds, leftKeys.NumericAt(lr), lr) && ec.limitReached() {
				return nil
			}
		}
	case HashJoin:
		// Build side: scan inner, filter, hash on key. A probe only needs to
		// know whether any qualifying inner row carries the key, so the table
		// is a key set rather than per-key row lists.
		ht := make(map[float64]struct{})
		innerKeys := inner.Col(q.Join.RightCol)
		preds := bindPreds(nil, inner, q.Join.Preds, true) // row-charged scan, like seqScan
		for r := 0; r < inner.Rows; r++ {
			ec.stats.RowsScanned++
			if evalAll(preds, uint32(r)) {
				ec.stats.HashBuilds++
				ht[innerKeys.NumericAt(uint32(r))] = struct{}{}
			}
		}
		for _, lr := range candidates {
			ec.stats.HashProbes++
			if _, hit := ht[leftKeys.NumericAt(lr)]; hit {
				ec.emit(lr)
				if ec.limitReached() {
					return nil
				}
			}
		}
	case MergeJoin:
		// Left side sorted by key; inner side read in key order via index.
		left := make([]joinKV, 0, len(candidates))
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
		n := float64(len(left))
		if n > 1 {
			ec.stats.SortUnits += int(n * math.Log2(n))
		}
		ix := inner.Index(q.Join.RightCol)
		if ix == nil || ix.Kind != IndexBTree {
			return fmt.Errorf("engine: merge join needs a btree index on %s.%s", inner.Name, q.Join.RightCol)
		}
		preds := bindPreds(nil, inner, q.Join.Preds, false)
		for _, l := range left {
			if ec.probeInner(ix.btree, preds, l.key, l.row) && ec.limitReached() {
				return nil
			}
		}
	default:
		return fmt.Errorf("engine: unsupported join method %v", method)
	}
	return nil
}

// probeInner runs one equality probe of the inner btree: it evaluates the
// inner predicates (bound in query order) against matching inner rows until
// one qualifies, then emits the left row. The visit always runs to the
// probe's end, even after a qualifying row — IndexEntries charges the whole
// per-probe descent and slot walk — but predicate evaluation stops at the
// first pass. Returns whether the left row was emitted.
func (ec *execContext) probeInner(tree *BTree, preds []boundPred, key float64, leftRow uint32) bool {
	emitted := false
	ec.stats.IndexEntries += tree.Visit(key, key, func(ir uint32) bool {
		if emitted {
			return true
		}
		for i := range preds {
			ec.stats.PredEvals++
			if !preds[i].eval(ir) {
				return true
			}
		}
		ec.emit(leftRow)
		emitted = true
		return true
	})
	return emitted
}

// emitAll emits every candidate row (no join), honoring the LIMIT.
func (ec *execContext) emitAll(candidates []uint32) {
	for _, r := range candidates {
		ec.emit(r)
		if ec.limitReached() {
			return
		}
	}
}

// emit adds one output row: translates sample ids to base ids and projects
// the point column. The column resolution happened once in RunCached, so
// this is branch-and-append only.
func (ec *execContext) emit(row uint32) {
	baseID := row
	if ec.baseRows != nil {
		baseID = uint32(ec.baseRows[row])
	}
	ec.res.RowIDs = append(ec.res.RowIDs, baseID)
	if ec.points != nil {
		ec.res.Points = append(ec.res.Points, ec.points[row])
	}
}

// limitReached reports whether the LIMIT has been hit, marking truncation.
func (ec *execContext) limitReached() bool {
	if ec.q.Limit > 0 && len(ec.res.RowIDs) >= ec.q.Limit {
		ec.res.Truncated = true
		return true
	}
	return false
}

// planFingerprint hashes the plan identity for deterministic noise.
func planFingerprint(q *Query, positions []int, join JoinMethod) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, c := range q.Table {
		mix(uint64(c))
	}
	for _, p := range positions {
		mix(uint64(p) + 101)
	}
	mix(uint64(join) + 7)
	mix(uint64(q.Limit) + 13)
	mix(uint64(q.SamplePercent) + 17)
	for _, p := range q.Preds {
		mix(uint64(p.Kind))
		mix(uint64(p.Word))
		mix(uint64(int64(p.Lo*1e3)) + 31)
		mix(uint64(int64(p.Hi*1e3)) + 37)
		mix(uint64(int64(p.Box.MinLon*1e3)) + 41)
		mix(uint64(int64(p.Box.MaxLat*1e3)) + 43)
	}
	return h
}
