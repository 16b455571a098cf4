package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
)

// ErrExecCanceled is the error a canceled execution returns. A yield hook
// cancels by calling AbortExec; the executor unwinds at the next stride
// boundary, returns its pooled context, and reports this error (or the cause
// passed to AbortExec).
var ErrExecCanceled = errors.New("engine: execution canceled")

// execAbort carries the cancellation cause through the panic-based unwind
// from a yield hook back to RunCachedYield's recover. Using a private type
// keeps genuine panics propagating unchanged.
type execAbort struct{ err error }

// AbortExec aborts the execution whose yield hook is currently running. It
// must only be called from inside a yield hook passed to RunCachedYield; the
// serving layer's cancellation check (client disconnected, deadline blown)
// piggybacks on the existing yield stride this way, so the hot path pays
// nothing new. A nil err reports ErrExecCanceled.
func AbortExec(err error) {
	if err == nil {
		err = ErrExecCanceled
	}
	panic(execAbort{err: err})
}

// Result holds the rows produced by a query execution. Row ids always refer
// to the *base* table (sample-table hits are translated back), so results of
// approximate rewrites can be compared against the original for quality.
type Result struct {
	RowIDs    []uint32        // matching main-table rows (base-table ids)
	Points    []Point         // output points, parallel to RowIDs, when a point column is projected or binned
	Bins      map[int]float64 // BIN_ID → (scaled) count, when Bin != nil
	Truncated bool            // a LIMIT stopped execution early
	Weight    float64         // per-row weight (100/SamplePercent for samples, 1 otherwise)
}

// execContext carries state through one query execution. Contexts are pooled:
// the scratch slices survive across executions so the hot path stays
// allocation-free, while the Result (which escapes to the caller) is always
// freshly allocated.
type execContext struct {
	db    *DB
	q     *Query
	t     *Table // resolved table (base or sample)
	cache *LookupCache
	stats ExecStats
	res   *Result
	limit int

	// Per-execution projection state, resolved once in Run instead of once
	// per emitted row.
	baseRows []int64 // sample → base row translation (nil for base tables)
	points   []Point // projected/binned point column (nil when none)

	// yield, when non-nil, is called every yieldStride rows of scan/probe
	// work so a low-priority execution (speculative prefetch) can hand the
	// processor back between chunks instead of holding it for a full
	// scheduler quantum.
	yield     func()
	yieldTick int

	// Scratch buffers reused across executions via ecPool.
	lists []Posting
	accA  []uint32
	accB  []uint32
	cand  []uint32
	sizes []int // fetch-phase stage sizes (see chargeFetch)
	// Predicates bound to column storage for this execution (main table and
	// join inner table). They alias table columns, so putExecContext clears
	// them like lists.
	preds  []boundPred
	jpreds []boundPred
	// Join scratch: the hash-join key set and the merge-join sort buffer.
	// Both hold no pointers, so keeping them across executions pins at most
	// the footprint of the largest join seen, not any table data.
	ht  map[float64]struct{}
	kvs []joinKV
	// cur streams nest-loop and merge-join probes over the inner btree
	// without materializing per-probe row slices. Unlike the scratch
	// buffers above it holds node pointers into the probed index, so
	// putExecContext clears it to avoid pinning table state in the pool.
	cur Cursor
}

// joinKV pairs a left row with its join key for the merge-join sort.
type joinKV struct {
	key float64
	row uint32
}

var ecPool = sync.Pool{New: func() any { return new(execContext) }}

// getExecContext checks a context out of the pool with per-execution fields
// reset and scratch buffers retained.
func getExecContext() *execContext {
	ec := ecPool.Get().(*execContext)
	ec.db, ec.q, ec.t, ec.cache = nil, nil, nil, nil
	ec.stats = ExecStats{}
	ec.res = nil
	ec.limit = 0
	ec.baseRows = nil
	ec.points = nil
	ec.yield = nil
	ec.yieldTick = 0
	return ec
}

// yieldStride is how many rows of scan/probe work run between yield calls.
// At typical per-row costs this bounds a background execution's contiguous
// hold on a processor to well under a millisecond.
const yieldStride = 4096

// maybeYield ticks the row counter and invokes the yield hook on stride
// boundaries. The nil check is a predictable branch; foreground executions
// (yield == nil) pay essentially nothing.
func (ec *execContext) maybeYield() {
	if ec.yield == nil {
		return
	}
	ec.yieldTick++
	if ec.yieldTick >= yieldStride {
		ec.yieldTick = 0
		ec.yield()
	}
}

// putExecContext returns a context to the pool. Scratch buffers are kept;
// everything referencing caller-visible state is dropped first.
func putExecContext(ec *execContext) {
	ec.db, ec.q, ec.t, ec.cache = nil, nil, nil, nil
	ec.res = nil
	ec.baseRows = nil
	ec.points = nil
	ec.yield = nil
	clear(ec.lists)
	ec.lists = ec.lists[:0]
	clear(ec.preds)
	ec.preds = ec.preds[:0]
	clear(ec.jpreds)
	ec.jpreds = ec.jpreds[:0]
	ec.cur = Cursor{}
	ecPool.Put(ec)
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
	return db.RunCachedYield(q, h, cache, nil)
}

// RunCachedYield is RunCached with an optional hook, called every few
// thousand rows of scan/probe work. A nil yield is exactly RunCached.
//
// The hook exists for cancellation: it may call AbortExec (the serving layer
// does this when a live request's client has disconnected), and the
// executor then unwinds at the stride boundary, recycles its context, and
// returns the abort cause — a cooperative cancel with zero cost on the
// non-canceled path.
func (db *DB) RunCachedYield(q *Query, h Hint, cache *LookupCache, yield func()) (res *Result, stats ExecStats, err error) {
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
	ec := getExecContext()
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(execAbort)
			if !ok {
				panic(r)
			}
			putExecContext(ec)
			res, stats, err = nil, ExecStats{}, ab.err
		}
	}()
	ec.db = db
	ec.q = q
	ec.t = t
	ec.cache = cache
	ec.yield = yield
	ec.res = &Result{Weight: weight}
	ec.limit = q.Limit
	if q.Bin != nil {
		ec.res.Bins = make(map[int]float64)
	}
	// Resolve emit-time projection state once per execution.
	if t.SampleOf != nil {
		ec.baseRows = t.Col("__base_row").Ints
	}
	ec.points = pointColumn(t, q)
	candidates, err := ec.access(positions)
	if err != nil {
		putExecContext(ec)
		return nil, ExecStats{}, err
	}
	if q.Join == nil {
		ec.emitAll(candidates)
	} else if err := ec.join(candidates, join); err != nil {
		putExecContext(ec)
		return nil, ExecStats{}, err
	}
	ec.stats.RowsOutput = len(ec.res.RowIDs)
	db.price(&ec.stats, t, q, positions, join)
	res, stats = ec.res, ec.stats
	putExecContext(ec)
	return res, stats, nil
}

// pointColumn returns the point column an execution of q over t projects or
// bins, nil when none: the bin column, else the first point output column.
func pointColumn(t *Table, q *Query) []Point {
	if q.Bin != nil {
		return t.Col(q.Bin.Col).Points
	}
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

// lookup serves one predicate's index scan, through the memoization cache
// when one is attached (a nil cache falls through to the direct scan).
func (ec *execContext) lookup(ix *Index, p Predicate) (Posting, int, error) {
	return ec.cache.lookup(ec.t, ix, p)
}

// access returns the main-table candidate rows that satisfy all predicates,
// using index scans on the given positions. With a LIMIT and no join, it
// stops early once enough rows qualify. The returned slice aliases pooled
// scratch memory and is only valid until the execution finishes.
func (ec *execContext) access(positions []int) ([]uint32, error) {
	q, t := ec.q, ec.t
	earlyLimit := ec.limit
	if q.Join != nil {
		earlyLimit = 0 // join may reject rows; cannot stop early here
	}
	if len(positions) == 0 {
		return ec.seqScan(earlyLimit), nil
	}
	// Index scans. Predicate positions fit in a bitmask (hint masks are
	// uint32), so residual tracking needs no map.
	ec.lists = ec.lists[:0]
	var usedMask uint64
	for _, pos := range positions {
		ix := t.Index(q.Preds[pos].Col)
		rows, entries, err := ec.lookup(ix, q.Preds[pos])
		if err != nil {
			return nil, err
		}
		ec.stats.IndexEntries += entries
		ec.lists = append(ec.lists, rows)
		usedMask |= 1 << uint(pos)
		if ec.yield != nil {
			ec.yield() // index scans are the longest unchunkable phase
		}
	}
	acc, ops := intersectLists(ec.lists, &ec.accA, &ec.accB, ec.yield)
	ec.stats.IntersectOps += ops
	// Residual predicates keep query order: PredEvals counts how far the
	// short-circuit got.
	residual := ec.preds[:0]
	for i, p := range q.Preds {
		if usedMask&(1<<uint(i)) == 0 {
			residual = append(residual, p.bind(t))
		}
	}
	ec.preds = residual
	// Fetch candidates, evaluate residual predicates. sizes[j] counts the
	// fetched rows that passed the first j residuals.
	sizes := append(ec.sizes[:0], make([]int, len(residual)+1)...)
	out := ec.cand[:0]
	for _, r := range acc {
		ec.maybeYield()
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
	ec.sizes, ec.cand = sizes, out
	return out, nil
}

// seqScan scans the whole table, evaluating all predicates per row. The scan
// is charged per row (RowsScanned), never per predicate evaluation, so it is
// free to test the cheap columnar predicates first. The returned slice
// aliases pooled scratch memory.
func (ec *execContext) seqScan(earlyLimit int) []uint32 {
	t := ec.t
	ec.preds = bindPreds(ec.preds[:0], t, ec.q.Preds, true)
	preds := ec.preds
	out := ec.cand[:0]
	for r := 0; r < t.Rows; r++ {
		ec.maybeYield()
		ec.stats.RowsScanned++
		if evalAll(preds, uint32(r)) {
			out = append(out, uint32(r))
			if earlyLimit > 0 && len(out) >= earlyLimit {
				ec.res.Truncated = true
				break
			}
		}
	}
	ec.cand = out
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
		// Probe keys arrive in candidate (row-id) order, so most probes
		// re-descend; the pooled cursor still removes the per-probe match
		// slice the old Range call materialized.
		ec.cur.Reset(ix.btree)
		ec.jpreds = bindPreds(ec.jpreds[:0], inner, q.Join.Preds, false)
		for _, lr := range candidates {
			ec.maybeYield()
			ec.stats.NestProbes++
			if ec.probeInner(leftKeys.NumericAt(lr), lr) {
				if ec.limitReached() {
					return nil
				}
			}
		}
	case HashJoin:
		// Build side: scan inner, filter, hash on key. A probe only needs to
		// know whether any qualifying inner row carries the key, so the table
		// is a pooled key set rather than per-key row lists — the join path
		// stays allocation-free across executions (stats are unchanged, so
		// the virtual cost model is too).
		if ec.ht == nil {
			ec.ht = make(map[float64]struct{})
		} else {
			clear(ec.ht)
		}
		innerKeys := inner.Col(q.Join.RightCol)
		ec.jpreds = bindPreds(ec.jpreds[:0], inner, q.Join.Preds, true) // row-charged scan, like seqScan
		for r := 0; r < inner.Rows; r++ {
			ec.maybeYield()
			ec.stats.RowsScanned++
			if evalAll(ec.jpreds, uint32(r)) {
				ec.stats.HashBuilds++
				ec.ht[innerKeys.NumericAt(uint32(r))] = struct{}{}
			}
		}
		for _, lr := range candidates {
			ec.stats.HashProbes++
			if _, hit := ec.ht[leftKeys.NumericAt(lr)]; hit {
				ec.emit(lr)
				if ec.limitReached() {
					return nil
				}
			}
		}
	case MergeJoin:
		// Left side sorted by key; inner side read in key order via index.
		// The sort buffer is pooled scratch, reused across executions.
		left := ec.kvs[:0]
		for _, lr := range candidates {
			left = append(left, joinKV{leftKeys.NumericAt(lr), lr})
		}
		ec.kvs = left
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
		// True streaming merge: the left side is sorted, so the cursor
		// resumes from its current leaf position (rewinding for duplicate
		// left keys) instead of re-descending per probe. Seek charges the
		// synthetic descent cost either way, keeping IndexEntries identical
		// to the descent-per-probe path.
		ec.cur.Reset(ix.btree)
		ec.jpreds = bindPreds(ec.jpreds[:0], inner, q.Join.Preds, false)
		for _, l := range left {
			ec.maybeYield()
			if ec.probeInner(l.key, l.row) {
				if ec.limitReached() {
					return nil
				}
			}
		}
	default:
		return fmt.Errorf("engine: unsupported join method %v", method)
	}
	return nil
}

// probeInner streams one equality probe through the pooled cursor: it
// evaluates inner predicates against matching inner rows until one qualifies,
// then emits the left row. The drain always runs to the probe's end even
// after a qualifying row — the per-probe slot walk is what IndexEntries
// charges, and it must match what a materializing Range scan reported —
// but predicate evaluation stops at the first pass, exactly like the old
// slice-based match loop. The inner predicates are ec.jpreds, bound in query
// order by the caller. Returns whether the left row was emitted.
func (ec *execContext) probeInner(key float64, leftRow uint32) bool {
	ec.cur.Seek(key)
	emitted := false
	for {
		ir, ok := ec.cur.Next(key)
		if !ok {
			break
		}
		if emitted {
			continue
		}
		pass := true
		for i := range ec.jpreds {
			ec.stats.PredEvals++
			if !ec.jpreds[i].eval(ir) {
				pass = false
				break
			}
		}
		if pass {
			ec.emit(leftRow)
			emitted = true
		}
	}
	ec.stats.IndexEntries += ec.cur.Entries()
	return emitted
}

// emitAll emits every candidate row (no join), honoring the LIMIT.
func (ec *execContext) emitAll(candidates []uint32) {
	for _, r := range candidates {
		ec.maybeYield()
		ec.emit(r)
		if ec.limitReached() {
			return
		}
	}
}

// emit adds one output row: translates sample ids to base ids, projects the
// point column, and updates bins. The column resolution happened once in
// RunCached, so this is branch-and-append only.
func (ec *execContext) emit(row uint32) {
	baseID := row
	if ec.baseRows != nil {
		baseID = uint32(ec.baseRows[row])
	}
	ec.res.RowIDs = append(ec.res.RowIDs, baseID)
	if ec.points != nil {
		p := ec.points[row]
		ec.res.Points = append(ec.res.Points, p)
		if ec.q.Bin != nil {
			ec.res.Bins[binID(ec.q.Bin, p)] += ec.res.Weight
		}
	}
}

// limitReached reports whether the LIMIT has been hit, marking truncation.
func (ec *execContext) limitReached() bool {
	if ec.limit > 0 && len(ec.res.RowIDs) >= ec.limit {
		ec.res.Truncated = true
		return true
	}
	return false
}

// binID maps a point to its grid cell id (-1 when outside the extent).
func binID(b *BinSpec, p Point) int {
	w := b.Extent.MaxLon - b.Extent.MinLon
	h := b.Extent.MaxLat - b.Extent.MinLat
	if w <= 0 || h <= 0 || !b.Extent.Contains(p) {
		return -1
	}
	x := int(float64(b.W) * (p.Lon - b.Extent.MinLon) / w)
	y := int(float64(b.H) * (p.Lat - b.Extent.MinLat) / h)
	if x >= b.W {
		x = b.W - 1
	}
	if y >= b.H {
		y = b.H - 1
	}
	return y*b.W + x
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
