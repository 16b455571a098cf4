package engine

import (
	"fmt"
	"strings"
)

// JoinMethod enumerates the physical join algorithms, matching the three
// join-method hints in the paper (§7.5).
type JoinMethod uint8

const (
	// JoinAuto lets the optimizer pick the join method.
	JoinAuto JoinMethod = iota
	// NestLoopJoin probes the inner table once per outer row (index nested
	// loop on the join key when available).
	NestLoopJoin
	// HashJoin builds a hash table on the inner table and probes it.
	HashJoin
	// MergeJoin sorts both sides on the join key and merges.
	MergeJoin
)

// String returns the pg_hint_plan-style name of the join method.
func (m JoinMethod) String() string {
	switch m {
	case JoinAuto:
		return "Auto"
	case NestLoopJoin:
		return "Nest-Loop-Join"
	case HashJoin:
		return "Hash-Join"
	case MergeJoin:
		return "Merge-Join"
	}
	return fmt.Sprintf("JoinMethod(%d)", uint8(m))
}

// JoinClause joins the query's main table to a second table on an equality
// key, with optional predicates on the joined table.
type JoinClause struct {
	Table    string      // inner table name, e.g. "users"
	LeftCol  string      // join column on the main table, e.g. "user_id"
	RightCol string      // join column on the inner table, e.g. "id"
	Preds    []Predicate // predicates on the inner table
}

// Query is the engine's logical query: a conjunctive selection over one
// table, with an optional join, an optional LIMIT, and an optional
// sample-table substitution. Preds order is significant: rewrite options
// refer to predicates by position.
type Query struct {
	Table string
	Preds []Predicate
	Join  *JoinClause

	// OutputCols are projected columns.
	OutputCols []string

	// Limit > 0 stops execution after that many output rows (an
	// approximation rule).
	Limit int
	// SamplePercent in (0,100) substitutes the table with its random sample
	// (an approximation rule). 0 means the base table.
	SamplePercent int
}

// Clone returns a deep-enough copy: slices are shared except Preds, and the
// approximation fields can be modified independently.
func (q *Query) Clone() *Query {
	cp := *q
	cp.Preds = append([]Predicate(nil), q.Preds...)
	if q.Join != nil {
		j := *q.Join
		j.Preds = append([]Predicate(nil), q.Join.Preds...)
		cp.Join = &j
	}
	return &cp
}

// Hint instructs the engine which access paths and join method to use,
// mirroring pg_hint_plan. A nil UseIndex slice means "optimizer decides";
// a non-nil (possibly empty) slice forces exactly those index columns.
type Hint struct {
	// UseIndex lists main-table predicate indexes (by predicate position)
	// that must be served by an index scan. Forced = true means the slice is
	// authoritative even when empty (forced full scan).
	UseIndex []int
	Forced   bool
	// Join forces the join method (JoinAuto = optimizer decides).
	Join JoinMethod
}

// ForcedHint builds a hint that forces exactly the given predicate positions
// to use their indexes.
func ForcedHint(predPositions []int, join JoinMethod) Hint {
	return Hint{UseIndex: append([]int(nil), predPositions...), Forced: true, Join: join}
}

// MaskFromPositions converts predicate positions to a bitmask.
func MaskFromPositions(pos []int) uint32 {
	var m uint32
	for _, p := range pos {
		m |= 1 << uint(p)
	}
	return m
}

// PositionsFromMask converts a bitmask to sorted predicate positions.
func PositionsFromMask(mask uint32, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// SQL renders the query with the hint as PostgreSQL + pg_hint_plan-style
// text, for logging, examples and the middleware demo.
func (q *Query) SQL(h Hint) string {
	var b strings.Builder
	table := q.Table
	if q.SamplePercent > 0 {
		table = fmt.Sprintf("%s_sample%d", q.Table, q.SamplePercent)
	}
	if h.Forced || h.Join != JoinAuto {
		b.WriteString("/*+ ")
		var parts []string
		if h.Forced {
			if len(h.UseIndex) == 0 {
				parts = append(parts, fmt.Sprintf("Seq-Scan(%s)", table))
			}
			for _, p := range h.UseIndex {
				if p < len(q.Preds) {
					parts = append(parts, fmt.Sprintf("Index-Scan(%s %s)", table, q.Preds[p].Col))
				}
			}
		}
		if h.Join != JoinAuto && q.Join != nil {
			parts = append(parts, fmt.Sprintf("%s(%s %s)", h.Join, table, q.Join.Table))
		}
		b.WriteString(strings.Join(parts, ", "))
		b.WriteString(" */ ")
	}
	b.WriteString("SELECT ")
	if len(q.OutputCols) > 0 {
		b.WriteString(strings.Join(q.OutputCols, ", "))
	} else {
		b.WriteString("*")
	}
	b.WriteString(" FROM ")
	b.WriteString(table)
	if q.Join != nil {
		b.WriteString(fmt.Sprintf(" JOIN %s ON %s.%s = %s.%s",
			q.Join.Table, table, q.Join.LeftCol, q.Join.Table, q.Join.RightCol))
	}
	var conds []string
	for _, p := range q.Preds {
		conds = append(conds, p.String())
	}
	if q.Join != nil {
		for _, p := range q.Join.Preds {
			conds = append(conds, q.Join.Table+"."+p.String())
		}
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if q.Limit > 0 {
		b.WriteString(fmt.Sprintf(" LIMIT %d", q.Limit))
	}
	b.WriteString(";")
	return b.String()
}
