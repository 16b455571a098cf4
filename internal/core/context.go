package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/viz"
)

// QueryContext captures everything Maliva (and its baselines) can observe
// about one query: the option set Ω, the true execution time and result
// quality of every rewritten query, the true and sample-estimated predicate
// selectivities, and the optimizer's plan estimates. Contexts are built once
// per query (the paper's offline experience collection) and then replayed by
// MDP training, online rewriting, and every comparator — which keeps all
// approaches measured against identical ground truth.
type QueryContext struct {
	Query   *engine.Query
	Options []Option

	// TrueMs[i] is the actual (virtual) execution time of RQ_i.
	TrueMs []float64
	// Quality[i] is F(r(Q), r(RQ_i)) ∈ [0,1]; 1 for exact options.
	Quality []float64
	// NeedSels[i] lists predicate positions whose selectivity a QTE must
	// collect before estimating RQ_i.
	NeedSels [][]int

	// SelTrue[p] is the exact selectivity of predicate p; SelSampled[p] is a
	// deterministic sampling-based estimate of it (with binomial noise).
	SelTrue    []float64
	SelSampled []float64

	// PlanEst[i] is the optimizer's estimate for RQ_i (Bao's features).
	PlanEst []engine.PlanEstimate

	// BaselineMs is the execution time of the original query when the
	// backend optimizer picks the plan (the no-rewriting baseline), and
	// BaselineOption is the Ω index matching that choice, or -1.
	BaselineMs     float64
	BaselineOption int

	// Fingerprint is a stable hash of the query, seeding deterministic
	// per-query randomness (sampling noise, cost jitter).
	Fingerprint uint64

	// Scale is the main table's ScaleFactor (for LIMIT sizing).
	Scale float64
	// EstRows is the optimizer's cardinality estimate for the original query.
	EstRows float64
	// NReal and InnerNReal are the real-scale row counts of the main and
	// joined tables (features for learned QTEs).
	NReal      float64
	InnerNReal float64
}

// N returns the number of rewriting options.
func (c *QueryContext) N() int { return len(c.Options) }

// NumViable returns the number of options whose true execution time alone is
// within the budget — the paper's per-query difficulty metric ("number of
// viable plans"). Approximation options are excluded, matching the paper's
// definition over physical plans of the original query.
func (c *QueryContext) NumViable(budget float64) int {
	n := 0
	for i, o := range c.Options {
		if o.IsApprox() {
			continue
		}
		if c.TrueMs[i] <= budget {
			n++
		}
	}
	return n
}

// BestExactMs returns the minimum true time over exact options.
func (c *QueryContext) BestExactMs() float64 {
	best := -1.0
	for i, o := range c.Options {
		if o.IsApprox() {
			continue
		}
		if best < 0 || c.TrueMs[i] < best {
			best = c.TrueMs[i]
		}
	}
	return best
}

// Context-construction constants.
const (
	// sampleRows is the virtual count(*) sample size behind SelSampled
	// (binomial noise scale).
	sampleRows = 1000
	// qualityGridW × qualityGridH is the raster used for Jaccard quality,
	// over the query's spatial extent (or the table's).
	qualityGridW, qualityGridH = 128, 128
)

// ContextConfig controls context construction.
type ContextConfig struct {
	Space SpaceSpec
	// Seed decorrelates sampling noise across experiments.
	Seed int64
	// Lookups optionally shares a predicate-lookup cache across contexts:
	// a serving layer (or lab build) over one immutable dataset can hold a
	// single cache so predicates an earlier context scanned skip the index
	// scan entirely. Every build puts its own memo in front of it (see
	// engine.NewLookupMemo), so sharing within a build — one scan per
	// predicate — holds with Lookups nil, roomy or full; the shared cache
	// sees each of a build's predicates once. Sharing never changes an
	// output bit — cached lookups return the exact rows and entry counts a
	// fresh scan would (see engine.LookupCache).
	Lookups *engine.LookupCache
}

// DefaultContextConfig returns the standard configuration for a space.
func DefaultContextConfig(space SpaceSpec) ContextConfig {
	return ContextConfig{Space: space, Seed: 1}
}

// BuildContext prices every rewritten query for q once — counting what an
// exact plan would cost from its posting lists, executing the rest — and
// assembles the ground-truth context. This is the expensive offline step (the
// paper pays it during training-data collection); everything downstream
// replays it.
func BuildContext(db *engine.DB, q *engine.Query, cfg ContextConfig) (*QueryContext, error) {
	ctx, _, err := BuildContextRows(db, q, cfg)
	return ctx, err
}

// BuildContextRows is BuildContext that also hands out the engine.Counter the
// build priced q's exact plans with, nil when q is not countable. Its Result
// is what executing any exact option of q returns, so a caller about to serve
// one of them — the serving layer on the miss that built the context — reads
// the answer from the lists the build already intersected instead of
// executing the plan again. The Counter reads the table: use it under the
// same data read lock as the build.
func BuildContextRows(db *engine.DB, q *engine.Query, cfg ContextConfig) (*QueryContext, *engine.Counter, error) {
	t := db.Table(q.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("core: unknown table %q", q.Table)
	}
	opts := EnumerateOptions(db, q, cfg.Space)
	if len(opts) == 0 {
		return nil, nil, fmt.Errorf("core: no rewriting options for query on %q", q.Table)
	}
	ctx := &QueryContext{
		Query:       q,
		Options:     opts,
		TrueMs:      make([]float64, len(opts)),
		Quality:     make([]float64, len(opts)),
		NeedSels:    make([][]int, len(opts)),
		PlanEst:     make([]engine.PlanEstimate, len(opts)),
		Fingerprint: queryFingerprint(q, cfg.Seed),
		Scale:       t.ScaleFactor,
		NReal:       t.RealRows(),
	}
	if q.Join != nil {
		if inner := db.Table(q.Join.Table); inner != nil {
			ctx.InnerNReal = inner.RealRows()
		}
	}

	// Each piece of engine work happens once per build.
	//
	// Index scans: the baseline run, the option runs and true-selectivity
	// collection keep asking the same indexes for the same predicates, so a
	// per-build memo sits in front of the caller's shared cache (cfg.Lookups,
	// possibly nil). Repeats within the build are served by the memo whether
	// or not the shared cache has room; first sightings fall through to it,
	// which extends the sharing across contexts. The engine's zero-allocation
	// visitor path (BTree.Visit) only takes over where a scan is never
	// shared: join probes inside each execution.
	cache := engine.NewLookupMemo(cfg.Lookups)

	// Optimizer estimates: every rewrite keeps q's table and predicates
	// (BuildRQ), so they all share q's selectivity estimates.
	//
	// Plans: rewrites that resolve to the same physical plan produce the
	// same rows, ExecStats and SimMs, so each distinct plan is priced once. The
	// unhinted baseline is always somebody's plan twice over — the optimizer
	// picks one of the index subsets Ω forces — and a backend that drops
	// hints (Profile.HintDropProb) collapses more.
	estSels := db.EstimateSels(q)
	chosen := db.EstimatePlanSels(q, engine.Hint{}, estSels)
	ctx.EstRows = chosen.EstRows
	type planRun struct {
		rq      *engine.Query
		hint    engine.Hint
		opt     int // first option scheduling the plan; -1: the baseline
		res     *engine.Result
		stats   engine.ExecStats
		counted bool // stats counted from posting lists; res is nil
	}
	runs := make([]planRun, 0, len(opts)+1)
	runOf := make(map[engine.PlanID]int, len(opts)+1)
	schedule := func(rq *engine.Query, h engine.Hint, opt int) int {
		id := db.ResolvePlan(rq, h)
		r, ok := runOf[id]
		if !ok {
			r = len(runs)
			runOf[id] = r
			runs = append(runs, planRun{rq: rq, hint: h, opt: opt})
		}
		return r
	}
	baseRun := schedule(q, engine.Hint{}, -1)
	type optPlan struct {
		rq   *engine.Query
		hint engine.Hint
		run  int // index into runs
	}
	plans := make([]optPlan, len(opts))
	needPixels := false
	for i, o := range opts {
		rq, h := BuildRQ(q, o, ctx.EstRows, ctx.Scale)
		plans[i] = optPlan{rq: rq, hint: h, run: schedule(rq, h, i)}
		needPixels = needPixels || o.IsApprox()
	}
	// True selectivities and deterministic sampled estimates. This pass
	// looks up every indexed predicate of q, so the memo then holds every
	// posting list a hint can ask the base table for.
	ctx.SelTrue = db.TrueSelectivitiesCached(q, cache)
	ctx.SelSampled = make([]float64, len(ctx.SelTrue))
	rng := rand.New(rand.NewSource(int64(ctx.Fingerprint)))
	for i, s := range ctx.SelTrue {
		ctx.SelSampled[i] = binomialEstimate(rng, s, sampleRows)
	}

	// Count, don't walk: a plan whose rows nobody reads only needs its cost,
	// and for an exact single-table plan the engine counts that from the
	// posting lists the selectivity pass just memoized (engine.Counter)
	// instead of fetching rows. Rows are produced only where they are read:
	// approximate options (their Quality), the baseline when an approximate
	// option is judged against it, and plans the engine cannot count (joins,
	// LIMIT, sample tables, unindexed predicates). Exact options run q itself
	// under a hint, so one Counter for q serves them all.
	counter := db.NewCounter(q, cache)
	for r := range runs {
		run := &runs[r]
		exact := run.opt < 0 || !opts[run.opt].IsApprox()
		if exact && !(r == baseRun && needPixels) {
			run.stats, run.counted = counter.Stats(run.hint)
		}
	}

	for r := range runs {
		run := &runs[r]
		if run.counted {
			continue
		}
		var err error
		run.res, run.stats, err = db.RunCached(run.rq, run.hint, cache)
		switch {
		case err == nil:
		case run.opt < 0:
			return nil, nil, fmt.Errorf("core: baseline run: %w", err)
		default:
			return nil, nil, fmt.Errorf("core: option %s: %w", opts[run.opt].Label(len(q.Preds)), err)
		}
	}
	baseRes, baseStats := runs[baseRun].res, runs[baseRun].stats
	ctx.BaselineMs = baseStats.SimMs
	ctx.BaselineOption = -1

	// What approximate options are judged against, computed only when Ω holds
	// one: the baseline's pixels on the quality grid (over the query's
	// spatial extent when present).
	var grid viz.Grid
	var origPixels map[int]struct{}
	if needPixels {
		grid = qualityGrid(t, q)
		origPixels = grid.Rasterize(baseRes.Points)
	}

	// Per-option ground truth from the option's run.
	for i, o := range opts {
		run := &runs[plans[i].run]
		ctx.TrueMs[i] = run.stats.SimMs
		ctx.NeedSels[i] = NeededSels(q, o)
		ctx.PlanEst[i] = db.EstimatePlanSels(plans[i].rq, plans[i].hint, estSels)
		if o.IsApprox() {
			ctx.Quality[i] = viz.JaccardPixels(origPixels, grid.Rasterize(run.res.Points))
		} else {
			ctx.Quality[i] = 1
		}
	}
	// Identify the baseline's plan among exact options (last match).
	for i, o := range opts {
		if !o.IsApprox() && o.HasHint &&
			o.Mask == engine.MaskFromPositions(chosen.Positions) &&
			(q.Join == nil || o.Join == chosen.Join) {
			ctx.BaselineOption = i
		}
	}
	return ctx, counter, nil
}

// qualityGrid picks the raster extent: the query's geo predicate box when
// present, otherwise the whole table grid statistic extent.
func qualityGrid(t *engine.Table, q *engine.Query) viz.Grid {
	w, h := qualityGridW, qualityGridH
	for _, p := range q.Preds {
		if p.Kind == engine.PredGeo {
			return viz.NewGrid(p.Box, w, h)
		}
	}
	// Fall back to the extent of the first point column.
	for _, c := range t.Cols {
		if c.Type == engine.ColPoint && len(c.Points) > 0 {
			ext := engine.PointRect(c.Points[0])
			for _, pt := range c.Points[1:] {
				ext = ext.Extend(engine.PointRect(pt))
			}
			return viz.NewGrid(ext, w, h)
		}
	}
	return viz.NewGrid(engine.Rect{MaxLon: 1, MaxLat: 1}, w, h)
}

// binomialEstimate simulates a count(*) over n sample rows: the estimated
// selectivity is Binomial(n, sel)/n, drawn deterministically from rng.
func binomialEstimate(rng *rand.Rand, sel float64, n int) float64 {
	if sel <= 0 {
		return 0
	}
	if sel >= 1 {
		return 1
	}
	// Normal approximation for large n·sel, exact draw otherwise.
	mean := float64(n) * sel
	if mean > 30 && float64(n)*(1-sel) > 30 {
		sd := math.Sqrt(mean * (1 - sel))
		k := mean + rng.NormFloat64()*sd
		if k < 0 {
			k = 0
		}
		if k > float64(n) {
			k = float64(n)
		}
		return k / float64(n)
	}
	k := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < sel {
			k++
		}
	}
	return float64(k) / float64(n)
}

// queryFingerprint hashes query structure for deterministic per-query noise.
func queryFingerprint(q *engine.Query, seed int64) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(seed))
	for _, c := range q.Table {
		mix(uint64(c))
	}
	for _, p := range q.Preds {
		mix(uint64(p.Kind) + 3)
		mix(uint64(p.Word) + 5)
		mix(uint64(int64(p.Lo*100)) + 7)
		mix(uint64(int64(p.Hi*100)) + 11)
		mix(uint64(int64(p.Box.MinLon*1000)) + 13)
		mix(uint64(int64(p.Box.MinLat*1000)) + 17)
		mix(uint64(int64(p.Box.MaxLon*1000)) + 19)
		mix(uint64(int64(p.Box.MaxLat*1000)) + 23)
	}
	if q.Join != nil {
		for _, c := range q.Join.Table {
			mix(uint64(c) + 29)
		}
	}
	return h
}
