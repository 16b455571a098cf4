package core

import "math"

// EnvConfig parameterizes the MDP environment.
type EnvConfig struct {
	// Budget is the time limit τ in virtual milliseconds.
	Budget float64
	// QTE is the query-time estimator the agent consults.
	QTE Estimator
	// Beta weighs efficiency against quality in the reward (Eq. 2);
	// Beta = 1 reduces to the hint-only reward (Eq. 1).
	Beta float64
	// StartElapsed pre-charges planning time at Reset (the two-stage
	// rewriter's second stage inherits the first stage's elapsed time).
	StartElapsed float64
}

// Env is the MDP environment for one query (§4.1): the agent repeatedly
// picks an unexplored rewritten query to estimate; the environment charges
// the estimation cost, updates the state, and terminates per §5.1.
type Env struct {
	Cfg EnvConfig
	Ctx *QueryContext

	elapsed  float64
	costs    []float64 // C_i — current estimation-cost estimates
	estTimes []float64 // T_i — estimated times of explored options (0 = unexplored)
	explored []bool
	remain   int
	cache    *SelCache

	done    bool
	decided int // option chosen at termination (-1 before)
}

// NewEnv creates an environment over a context. Call Reset before use.
func NewEnv(cfg EnvConfig, ctx *QueryContext) *Env {
	e := &Env{Cfg: cfg, Ctx: ctx}
	e.Reset()
	return e
}

// Reset reinitializes the episode with the configured starting elapsed time
// (zero by default).
func (e *Env) Reset() { e.ResetWithElapsed(e.Cfg.StartElapsed) }

// ResetWithElapsed reinitializes the episode with planning time already
// spent (used by the two-stage rewriter, whose second stage inherits the
// first stage's elapsed time).
func (e *Env) ResetWithElapsed(elapsed float64) {
	n := e.Ctx.N()
	e.elapsed = elapsed
	e.costs = make([]float64, n)
	e.estTimes = make([]float64, n)
	e.explored = make([]bool, n)
	e.remain = n
	e.cache = NewSelCache()
	e.done = false
	e.decided = -1
	for i := 0; i < n; i++ {
		e.costs[i] = e.Cfg.QTE.InitialCost(e.Ctx, i)
	}
}

// N returns the action-space size.
func (e *Env) N() int { return e.Ctx.N() }

// Done reports whether the episode has terminated.
func (e *Env) Done() bool { return e.done }

// Decided returns the option chosen at termination (-1 before termination).
func (e *Env) Decided() int { return e.decided }

// Elapsed returns the planning time spent so far.
func (e *Env) Elapsed() float64 { return e.elapsed }

// Explored returns the exploration mask (do not mutate).
func (e *Env) Explored() []bool { return e.explored }

// StateDim returns the state-vector dimension: 1 + 2n (E, C₁..Cₙ, T₁..Tₙ).
func StateDim(n int) int { return 1 + 2*n }

// State encodes the MDP state (E, C₁..Cₙ, T₁..Tₙ), normalized by τ so the
// Q-network sees budget-relative magnitudes.
func (e *Env) State() []float64 {
	n := e.Ctx.N()
	s := make([]float64, StateDim(n))
	tau := e.Cfg.Budget
	s[0] = e.elapsed / tau
	for i := 0; i < n; i++ {
		s[1+i] = e.costs[i] / tau
		s[1+n+i] = e.estTimes[i] / tau
	}
	return s
}

// Step performs one MDP transition: the agent explores option a (asks the
// QTE to estimate it). It returns the immediate reward and whether the
// episode terminated. Stepping an explored option or a finished episode
// panics — those are agent bugs.
func (e *Env) Step(a int) (reward float64, done bool) {
	if e.done {
		panic("core: Step on finished episode")
	}
	if e.explored[a] {
		panic("core: Step on already-explored option")
	}
	est, cost := e.Cfg.QTE.Estimate(e.Ctx, a, e.cache)
	e.elapsed += cost
	e.estTimes[a] = est
	e.explored[a] = true
	e.remain--
	// Transition: the acting option's cost becomes its actual cost; other
	// unexplored options get cheaper as selectivities are now cached.
	e.costs[a] = cost
	for j := 0; j < e.Ctx.N(); j++ {
		if !e.explored[j] {
			e.costs[j] = e.Cfg.QTE.CostNow(e.Ctx, j, e.cache)
		}
	}
	// Termination (§5.1): (1) estimated-viable option found, (2) out of
	// time, (3) options exhausted.
	switch {
	case e.elapsed+est <= e.Cfg.Budget:
		e.decided = a
	case e.elapsed >= e.Cfg.Budget, e.remain == 0:
		e.decided = e.bestEstimated()
	default:
		return 0, false
	}
	e.done = true
	return e.terminalReward(), true
}

// bestEstimated returns the explored option with the minimum estimated time.
func (e *Env) bestEstimated() int {
	best, bestT := -1, math.Inf(1)
	for i, ex := range e.explored {
		if ex && e.estTimes[i] < bestT {
			best, bestT = i, e.estTimes[i]
		}
	}
	return best
}

// terminalReward runs the decided rewritten query and computes the reward:
// Eq. 1 when Beta == 1, Eq. 2 otherwise.
func (e *Env) terminalReward() float64 {
	tau := e.Cfg.Budget
	actual := e.Ctx.TrueMs[e.decided]
	eff := (tau - e.elapsed - actual) / tau
	beta := e.Cfg.Beta
	if beta >= 1 {
		return eff
	}
	return beta*eff + (1-beta)*e.Ctx.Quality[e.decided]
}

// Outcome summarizes a finished episode for metrics.
type Outcome struct {
	Option   int     // chosen rewriting option
	PlanMs   float64 // planning (estimation) time spent
	ExecMs   float64 // true execution time of the chosen RQ
	TotalMs  float64
	Viable   bool
	Quality  float64
	Explored int // number of options estimated
}

// Outcome returns the episode result; only valid after termination.
func (e *Env) Outcome() Outcome {
	if !e.done {
		panic("core: Outcome before termination")
	}
	exec := e.Ctx.TrueMs[e.decided]
	n := 0
	for _, ex := range e.explored {
		if ex {
			n++
		}
	}
	total := e.elapsed + exec
	return Outcome{
		Option:   e.decided,
		PlanMs:   e.elapsed,
		ExecMs:   exec,
		TotalMs:  total,
		Viable:   total <= e.Cfg.Budget,
		Quality:  e.Ctx.Quality[e.decided],
		Explored: n,
	}
}
