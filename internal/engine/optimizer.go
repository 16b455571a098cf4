package engine

import (
	"math"
	"sort"
)

// PlanEstimate is the optimizer's view of one physical plan: its estimated
// cost, cardinalities, and structure. Bao's QTE consumes these as features,
// inheriting the optimizer's estimation errors exactly as in the paper.
type PlanEstimate struct {
	Positions []int      // predicate positions served by index scans
	Join      JoinMethod // resolved join method (JoinAuto when no join)
	EstMs     float64    // estimated execution time (virtual ms)
	EstRows   float64    // estimated output cardinality at real scale
	EstSels   []float64  // estimated selectivity per main-table predicate
}

// indexablePositions returns the predicate positions that have a matching
// index on the table.
func indexablePositions(t *Table, q *Query) []int {
	var out []int
	for i, p := range q.Preds {
		ix := t.Index(p.Col)
		if ix == nil {
			continue
		}
		switch {
		case ix.Kind == IndexBTree && p.Kind == PredRange,
			ix.Kind == IndexRTree && p.Kind == PredGeo,
			ix.Kind == IndexInverted && p.Kind == PredKeyword:
			out = append(out, i)
		}
	}
	return out
}

// estimateAccess computes the estimated cost and cardinality of accessing
// the main table with index scans on the given positions, using the given
// per-predicate selectivities (estimated or true).
func estimateAccess(m CostModel, nReal float64, sels []float64, positions []int) (ms, outRows float64) {
	if len(positions) == 0 {
		out := nReal
		for _, s := range sels {
			out *= s
		}
		us := nReal * m.FullScanRowUS
		return m.StartupMs + us/1000, out
	}
	candidates := nReal
	var entries float64
	for _, pos := range positions {
		entries += sels[pos] * nReal
		candidates *= sels[pos]
	}
	residual := 0
	for i := range sels {
		used := false
		for _, pos := range positions {
			if pos == i {
				used = true
				break
			}
		}
		if !used {
			residual++
		}
	}
	out := candidates
	for i, s := range sels {
		used := false
		for _, pos := range positions {
			if pos == i {
				used = true
				break
			}
		}
		if !used {
			out *= s
		}
		_ = i
	}
	us := entries*m.IndexEntryUS +
		entries*m.IntersectUS + // merge pass over all postings
		candidates*m.FetchUS +
		candidates*float64(residual)*m.PredEvalUS +
		out*m.OutputUS
	return m.StartupMs + us/1000, out
}

// estimateJoin adds the estimated cost of joining leftRows output rows with
// the inner table using the given method.
func estimateJoin(m CostModel, method JoinMethod, leftRows, innerReal, innerSel float64) float64 {
	matched := innerSel // fraction of probes that survive inner predicates
	switch method {
	case NestLoopJoin:
		us := leftRows*m.NestProbeUS + leftRows*m.PredEvalUS
		return us / 1000
	case HashJoin:
		us := innerReal*m.FullScanRowUS + innerReal*innerSel*m.HashBuildUS + leftRows*m.HashProbeUS
		return us / 1000
	case MergeJoin:
		// Inner side is read in key order via its index; left side is sorted.
		sortUnits := leftRows * math.Log2(math.Max(2, leftRows))
		us := sortUnits*m.SortUS + innerReal*m.IndexEntryUS + leftRows*m.PredEvalUS
		return us / 1000
	}
	_ = matched
	return 0
}

// ChoosePlan is the optimizer: it enumerates all index subsets (and join
// methods) and returns the plan with the lowest *estimated* cost. The
// estimates use the coarse statistics in TableStats, so the choice is often
// wrong for textual and spatial conditions — by design (see DESIGN.md §3).
func (db *DB) ChoosePlan(q *Query) PlanEstimate {
	return db.bestPlan(q, db.EstimateSels(q))
}

// EstimateSels returns the optimizer's selectivity estimates for q's
// predicates. They depend only on q's table and predicates, so the rewrites
// of one query, which share both, share them too.
func (db *DB) EstimateSels(q *Query) []float64 {
	return db.statsFor(q.Table).estimateSels(q)
}

// EstimatePlanSels returns the optimizer's estimate for one specific hint,
// without choosing, given sels = EstimateSels(q), which a caller estimating
// many rewrites of one query computes once (sels is only read). Bao
// featurizes these. An unforced hint falls back to the optimizer's own
// choice, as the backend would.
func (db *DB) EstimatePlanSels(q *Query, h Hint, sels []float64) PlanEstimate {
	if !h.Forced {
		pe := db.bestPlan(q, sels)
		if h.Join != JoinAuto {
			pe.Join = h.Join
		}
		return pe
	}
	return db.planEstimate(q, db.table(q.Table), sels, h.UseIndex, h.Join)
}

// estimateSels returns the optimizer's selectivity estimates for all main
// predicates of q.
func (st *TableStats) estimateSels(q *Query) []float64 {
	sels := make([]float64, len(q.Preds))
	for i, p := range q.Preds {
		sels[i] = st.EstimateSelectivity(p)
	}
	return sels
}

// bestPlan enumerates subsets of indexable predicates × join methods.
func (db *DB) bestPlan(q *Query, sels []float64) PlanEstimate {
	t := db.table(q.Table)
	idxable := indexablePositions(t, q)
	best := PlanEstimate{EstMs: math.Inf(1)}
	n := len(idxable)
	maxIdx := db.Profile.OptimizerMaxIndexes
	for mask := 0; mask < 1<<uint(n); mask++ {
		if maxIdx > 0 && popcount(mask) > maxIdx {
			continue
		}
		var positions []int
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 {
				positions = append(positions, idxable[b])
			}
		}
		methods := []JoinMethod{JoinAuto}
		if q.Join != nil {
			methods = []JoinMethod{NestLoopJoin, HashJoin, MergeJoin}
		}
		for _, jm := range methods {
			pe := db.planEstimate(q, t, sels, positions, jm)
			if pe.EstMs < best.EstMs {
				best = pe
			}
		}
	}
	return best
}

// popcount returns the number of set bits in a small mask.
func popcount(m int) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// planEstimate computes the full estimate for one (positions, join) plan.
func (db *DB) planEstimate(q *Query, t *Table, sels []float64, positions []int, jm JoinMethod) PlanEstimate {
	nReal := t.RealRows()
	if q.SamplePercent > 0 {
		nReal *= float64(q.SamplePercent) / 100
	}
	m := db.Profile.Cost
	ms, outRows := estimateAccess(m, nReal, sels, positions)
	if q.Join != nil {
		inner := db.table(q.Join.Table)
		innerStats := db.statsFor(q.Join.Table)
		innerSel := 1.0
		for _, p := range q.Join.Preds {
			innerSel *= innerStats.EstimateSelectivity(p)
		}
		if jm == JoinAuto {
			jm = NestLoopJoin
		}
		ms += estimateJoin(m, jm, outRows, inner.RealRows(), innerSel)
		outRows *= innerSel
	}
	if q.Limit > 0 && outRows > float64(q.Limit) {
		// Early termination: assume cost shrinks proportionally for the
		// fetch-dominated part. Keep it simple and scale the whole estimate.
		frac := float64(q.Limit) / outRows
		ms = m.StartupMs + (ms-m.StartupMs)*math.Max(frac, 0.01)
		outRows = float64(q.Limit)
	}
	pos := append([]int(nil), positions...)
	sort.Ints(pos)
	return PlanEstimate{
		Positions: pos,
		Join:      jm,
		EstMs:     ms,
		EstRows:   outRows,
		EstSels:   append([]float64(nil), sels...),
	}
}
