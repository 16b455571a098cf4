package core

import (
	"fmt"
	"math"

	"github.com/maliva/maliva/internal/engine"
)

// ApproxKind enumerates the approximation rules Maliva can apply (§2, §6).
type ApproxKind uint8

const (
	// ApproxNone is the exact (hint-only) rewriting.
	ApproxNone ApproxKind = iota
	// ApproxSample substitutes the table with a Percent% random sample
	// (Fig. 2/3 in the paper).
	ApproxSample
	// ApproxLimit adds a LIMIT clause sized to Percent% of the optimizer's
	// estimated cardinality (§7.7).
	ApproxLimit
)

// String names the approximation kind.
func (k ApproxKind) String() string {
	switch k {
	case ApproxNone:
		return "none"
	case ApproxSample:
		return "sample"
	case ApproxLimit:
		return "limit"
	}
	return fmt.Sprintf("ApproxKind(%d)", uint8(k))
}

// ApproxRule is one approximation rule with its rate parameter.
type ApproxRule struct {
	Kind    ApproxKind
	Percent float64 // sample percent, or limit as % of estimated cardinality
}

// Option is a rewriting option RO = (h, a): a query-hint set plus an
// approximation-rule set (either can be empty).
type Option struct {
	// Mask selects main-table predicate positions whose index the hint
	// forces; HasHint=false means "no hint" (optimizer decides).
	Mask    uint32
	HasHint bool
	// Join is the forced join method (JoinAuto = no join hint).
	Join engine.JoinMethod
	// Approx is the approximation rule (Kind == ApproxNone for exact).
	Approx ApproxRule
}

// Label renders a short human-readable identifier such as "idx{0,2}+nl" or
// "limit4%".
func (o Option) Label(numPreds int) string {
	s := ""
	if o.HasHint {
		s = "idx{"
		first := true
		for i := 0; i < numPreds; i++ {
			if o.Mask&(1<<uint(i)) != 0 {
				if !first {
					s += ","
				}
				s += fmt.Sprint(i)
				first = false
			}
		}
		s += "}"
	} else {
		s = "auto"
	}
	switch o.Join {
	case engine.NestLoopJoin:
		s += "+nl"
	case engine.HashJoin:
		s += "+hash"
	case engine.MergeJoin:
		s += "+merge"
	}
	switch o.Approx.Kind {
	case ApproxSample:
		s += fmt.Sprintf("+sample%g%%", o.Approx.Percent)
	case ApproxLimit:
		s += fmt.Sprintf("+limit%g%%", o.Approx.Percent)
	}
	return s
}

// IsApprox reports whether the option changes query results.
func (o Option) IsApprox() bool { return o.Approx.Kind != ApproxNone }

// SpaceSpec describes how to enumerate the rewriting-option set Ω for a
// query (§3: Ω = {RO₁, …}).
type SpaceSpec struct {
	// IncludeEmptyHint includes the forced-no-index option RQ0. The paper
	// uses 2^m options for selection queries (Fig. 4) and 7 = 2^3−1 index
	// combinations for join queries (§7.5).
	IncludeEmptyHint bool
	// JoinMethods, when non-empty, crosses index combinations with these
	// forced join methods (join workloads use all three).
	JoinMethods []engine.JoinMethod
	// ApproxRules are appended as additional options applied to the original
	// (unhinted) query, as in §7.7.
	ApproxRules []ApproxRule
	// CrossApprox additionally crosses every approximation rule with every
	// hint set (the paper's Fig. 11: 8 hint sets × 3 approximation-rule
	// sets). Without it approximation options run on the optimizer's plan.
	CrossApprox bool
}

// HintOnlySpec returns the default §7.2 space: all 2^m index subsets.
func HintOnlySpec() SpaceSpec { return SpaceSpec{IncludeEmptyHint: true} }

// JoinSpec returns the §7.5 space: 7 non-empty index combinations × 3 join
// methods = 21 options.
func JoinSpec() SpaceSpec {
	return SpaceSpec{
		IncludeEmptyHint: false,
		JoinMethods: []engine.JoinMethod{
			engine.NestLoopJoin, engine.HashJoin, engine.MergeJoin,
		},
	}
}

// QualityAwareSpec returns the §7.7 space: all 2^m index subsets plus the
// five LIMIT rules.
func QualityAwareSpec() SpaceSpec {
	return SpaceSpec{
		IncludeEmptyHint: true,
		ApproxRules: []ApproxRule{
			{Kind: ApproxLimit, Percent: 0.032},
			{Kind: ApproxLimit, Percent: 0.16},
			{Kind: ApproxLimit, Percent: 0.8},
			{Kind: ApproxLimit, Percent: 4},
			{Kind: ApproxLimit, Percent: 20},
		},
	}
}

// EnumerateOptions builds Ω for a query under the spec. Only predicates with
// a usable index participate in hint masks.
func EnumerateOptions(db *engine.DB, q *engine.Query, spec SpaceSpec) []Option {
	t := db.Table(q.Table)
	if t == nil {
		return nil
	}
	idxable := indexablePreds(t, q)
	var masks []uint32
	n := len(idxable)
	for m := 0; m < 1<<uint(n); m++ {
		if m == 0 && !spec.IncludeEmptyHint {
			continue
		}
		var mask uint32
		for b := 0; b < n; b++ {
			if m&(1<<uint(b)) != 0 {
				mask |= 1 << uint(idxable[b])
			}
		}
		masks = append(masks, mask)
	}
	var opts []Option
	joins := spec.JoinMethods
	if len(joins) == 0 || q.Join == nil {
		joins = []engine.JoinMethod{engine.JoinAuto}
	}
	for _, mask := range masks {
		for _, jm := range joins {
			opts = append(opts, Option{Mask: mask, HasHint: true, Join: jm})
		}
	}
	for _, ar := range spec.ApproxRules {
		opts = append(opts, Option{Approx: ar})
		if spec.CrossApprox {
			for _, mask := range masks {
				if mask == 0 {
					continue // the unhinted option above covers it
				}
				for _, jm := range joins {
					opts = append(opts, Option{Mask: mask, HasHint: true, Join: jm, Approx: ar})
				}
			}
		}
	}
	return opts
}

// indexablePreds returns predicate positions that can be served by an index.
func indexablePreds(t *engine.Table, q *engine.Query) []int {
	var out []int
	for i, p := range q.Preds {
		ix := t.Index(p.Col)
		if ix == nil {
			continue
		}
		switch {
		case ix.Kind == engine.IndexBTree && p.Kind == engine.PredRange,
			ix.Kind == engine.IndexRTree && p.Kind == engine.PredGeo,
			ix.Kind == engine.IndexInverted && p.Kind == engine.PredKeyword:
			out = append(out, i)
		}
	}
	return out
}

// BuildRQ materializes the rewritten query RQ = apply(RO, Q) plus the engine
// hint to execute it with. estRows is the optimizer's cardinality estimate of
// the original query at real scale (used to size LIMIT rules), and scale is
// the table's ScaleFactor (to convert the limit to stored rows).
func BuildRQ(q *engine.Query, o Option, estRows, scale float64) (*engine.Query, engine.Hint) {
	rq := q.Clone()
	h := engine.Hint{Join: o.Join}
	if o.HasHint {
		h.Forced = true
		h.UseIndex = engine.PositionsFromMask(o.Mask, len(q.Preds))
	}
	switch o.Approx.Kind {
	case ApproxSample:
		rq.SamplePercent = int(o.Approx.Percent)
	case ApproxLimit:
		rq.Limit = scaledRows(estRows, o.Approx.Percent, scale)
	}
	return rq, h
}

// scaledRows converts a percent of the real-scale cardinality estimate into
// a stored-row count (min 1) — the sizing rule of LIMIT options.
func scaledRows(estRows, percent, scale float64) int {
	n := int(math.Ceil(estRows * percent / 100 / math.Max(scale, 1)))
	if n < 1 {
		n = 1
	}
	return n
}

// NeededSels returns the main-table predicate positions whose selectivity a
// QTE must collect to estimate option o: the hinted index positions for
// hint options, and every predicate for approximation options (the rule's
// LIMIT is sized from the full cardinality estimate).
func NeededSels(q *engine.Query, o Option) []int {
	if o.IsApprox() || !o.HasHint {
		all := make([]int, len(q.Preds))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return engine.PositionsFromMask(o.Mask, len(q.Preds))
}
