package core

import "math"

// Rewriter is a query-rewriting strategy: given a query's context and a time
// budget, decide which rewritten query to run and account for the planning
// time spent deciding. All comparators in the paper's §7 implement this.
type Rewriter interface {
	Name() string
	Rewrite(ctx *QueryContext, budget float64) Outcome
}

// BaselineRewriter is the paper's baseline: no rewriting — the backend
// optimizer plans the original query, with (virtually) zero middleware
// planning time.
type BaselineRewriter struct{}

// Name implements Rewriter.
func (BaselineRewriter) Name() string { return "Baseline" }

// Rewrite implements Rewriter.
func (BaselineRewriter) Rewrite(ctx *QueryContext, budget float64) Outcome {
	return Outcome{
		Option:   ctx.BaselineOption,
		PlanMs:   0,
		ExecMs:   ctx.BaselineMs,
		TotalMs:  ctx.BaselineMs,
		Viable:   ctx.BaselineMs <= budget,
		Quality:  1,
		Explored: 0,
	}
}

// NaiveRewriter is the brute-force strategy (§7.5 "Naive"): estimate every
// rewritten query with the QTE, pay the full estimation cost, then pick the
// fastest estimate. With an expensive QTE the planning time alone can blow
// the budget — the paper's challenge C1.
type NaiveRewriter struct {
	QTE Estimator
	// ExactOnly restricts the enumeration to exact (non-approximate)
	// options, which is what the paper's Naive comparator considers.
	ExactOnly bool
}

// Name implements Rewriter.
func (r NaiveRewriter) Name() string { return "Naive (" + r.QTE.Name() + ")" }

// Rewrite implements Rewriter.
func (r NaiveRewriter) Rewrite(ctx *QueryContext, budget float64) Outcome {
	cache := NewSelCache()
	plan := 0.0
	best, bestEst := -1, math.Inf(1)
	explored := 0
	for i := range ctx.Options {
		if r.ExactOnly && ctx.Options[i].IsApprox() {
			continue
		}
		est, cost := r.QTE.Estimate(ctx, i, cache)
		plan += cost
		explored++
		if est < bestEst {
			best, bestEst = i, est
		}
	}
	exec := ctx.TrueMs[best]
	total := plan + exec
	return Outcome{
		Option:   best,
		PlanMs:   plan,
		ExecMs:   exec,
		TotalMs:  total,
		Viable:   total <= budget,
		Quality:  ctx.Quality[best],
		Explored: explored,
	}
}

// MDPRewriter wraps a trained agent with an environment configuration: the
// Maliva rewriter proper (§5.2).
type MDPRewriter struct {
	Agent *Agent
	QTE   Estimator
	Beta  float64 // 1 for hint-only spaces
	Tag   string  // display name suffix, e.g. "Accurate-QTE"
}

// Name implements Rewriter.
func (r *MDPRewriter) Name() string {
	if r.Tag != "" {
		return "MDP (" + r.Tag + ")"
	}
	return "MDP (" + r.QTE.Name() + ")"
}

// Rewrite implements Rewriter. A policy is trained for one option-space
// shape — the Q-network's state encoding sizes with |Ω| — so a query whose
// predicate count yields a different option count cannot go through the
// agent (the forward pass would panic mid-request). Such queries degrade
// to the no-rewrite baseline: correct and budget-accounted, just
// unoptimized. Serving binaries train on 3-predicate workloads, so this is
// the path 1/2-predicate frontend requests take.
func (r *MDPRewriter) Rewrite(ctx *QueryContext, budget float64) Outcome {
	if r.Agent.NumOpts != len(ctx.Options) {
		return BaselineRewriter{}.Rewrite(ctx, budget)
	}
	env := NewEnv(EnvConfig{Budget: budget, QTE: r.QTE, Beta: r.betaOrDefault()}, ctx)
	return r.Agent.Rewrite(env)
}

func (r *MDPRewriter) betaOrDefault() float64 {
	if r.Beta <= 0 {
		return 1
	}
	return r.Beta
}

// OracleRewriter picks the truly fastest exact option with zero planning
// cost — an upper bound used in tests and ablations, not a paper comparator.
type OracleRewriter struct{}

// Name implements Rewriter.
func (OracleRewriter) Name() string { return "Oracle" }

// Rewrite implements Rewriter.
func (OracleRewriter) Rewrite(ctx *QueryContext, budget float64) Outcome {
	best, bestT := -1, math.Inf(1)
	for i, o := range ctx.Options {
		if o.IsApprox() {
			continue
		}
		if ctx.TrueMs[i] < bestT {
			best, bestT = i, ctx.TrueMs[i]
		}
	}
	return Outcome{
		Option:  best,
		ExecMs:  bestT,
		TotalMs: bestT,
		Viable:  bestT <= budget,
		Quality: 1,
	}
}
