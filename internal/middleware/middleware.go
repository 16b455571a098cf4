package middleware

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/viz"
	"github.com/maliva/maliva/internal/workload"
)

// VizKind selects the visualization type of a request.
type VizKind string

const (
	// VizHeatmap returns per-cell counts.
	VizHeatmap VizKind = "heatmap"
	// VizScatter returns raw points.
	VizScatter VizKind = "scatter"
	// VizCount returns a single matching-row count.
	VizCount VizKind = "count"
	// VizDistinct returns the number of distinct words among matching rows.
	VizDistinct VizKind = "distinct"
)

// Request is a frontend visualization request (the running example of §1:
// "tweets containing <keyword> in <region> during <time range>").
type Request struct {
	Keyword  string      `json:"keyword"`
	From     time.Time   `json:"from"`
	To       time.Time   `json:"to"`
	Region   engine.Rect `json:"region"`
	Kind     VizKind     `json:"kind"`
	GridW    int         `json:"grid_w"`
	GridH    int         `json:"grid_h"`
	BudgetMs float64     `json:"budget_ms"`
}

// Response is the visualization result plus a trace of what the middleware
// did — useful for demos and debugging.
type Response struct {
	Kind   VizKind         `json:"kind"`
	Bins   map[int]float64 `json:"bins,omitempty"`
	Points []engine.Point  `json:"points,omitempty"`
	// Value carries the aggregate answer for VizCount/VizDistinct requests.
	Value *float64 `json:"value,omitempty"`
	GridW int      `json:"grid_w"`
	GridH int      `json:"grid_h"`
	Trace Trace    `json:"trace"`

	// body holds the []byte WriteJSON keeps: this response's own encoding,
	// written once by the first result-cache hit that writes it. An
	// atomic.Value, not an atomic.Pointer, because the latter's no-copy
	// marker would make every by-value use of a Response a vet error.
	body atomic.Value
}

// Trace records the rewriting decision for a request.
type Trace struct {
	SQL          string  `json:"sql"`
	RewrittenSQL string  `json:"rewritten_sql"`
	Option       string  `json:"option"`
	BudgetMs     float64 `json:"budget_ms"`
	PlanMs       float64 `json:"plan_ms"`
	ExecMs       float64 `json:"exec_ms"`
	TotalMs      float64 `json:"total_ms"`
	Viable       bool    `json:"viable"`
	Quality      float64 `json:"quality"`
	NumExplored  int     `json:"num_explored"`
}

// ServerConfig sizes the serving layer. The zero value of each field picks
// the default noted on it; a negative size disables that subsystem.
type ServerConfig struct {
	// DefaultBudgetMs applies when a request has no budget. Default 500.
	DefaultBudgetMs float64
	// PlanCacheSize caps the number of cached query shapes (contexts).
	// Default 512; negative disables the plan cache.
	PlanCacheSize int
	// ResultCacheSize caps the number of cached responses. Default 4096;
	// negative disables the result cache.
	ResultCacheSize int
	// ResultTTL is ignored: a cached result stays exact until a flush moves
	// the data version past it, so entries leave by LRU eviction or by the
	// flush hook's reclaim, never by age. The field remains only because the
	// benchmark in bench/ still sets it.
	ResultTTL time.Duration
}

// normalized resolves defaults and disables.
func (c ServerConfig) normalized() ServerConfig {
	if c.DefaultBudgetMs <= 0 {
		c.DefaultBudgetMs = 500
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 512
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 4096
	}
	return c
}

// lookupCacheCap bounds the server-scope predicate-lookup cache. Entries
// are keyed on client-supplied predicate values and each pins a posting
// list, so a server facing unbounded distinct shapes must stop memoizing
// at some point (the plan/result caches have LRU caps; this one freezes
// when full, which keeps the canonical-posting aliasing invariant trivially).
// A frozen cache only stops sharing scans *across* requests: within one
// context build core.BuildContext's own memo sits in front of it, so a cold
// request scans each predicate once either way.
const lookupCacheCap = 8192

// Server is the Maliva middleware bound to one dataset and one rewriter.
// It is safe for concurrent use; see ServerConfig for the caching knobs.
// Requests reach it over HTTP only through a Gateway (Gateway.Handler).
type Server struct {
	DS       *workload.Dataset
	Rewriter core.Rewriter
	Space    core.SpaceSpec

	cfg   ServerConfig
	table *engine.Table
	// Filter columns resolved once at construction (BuildQuery previously
	// rescanned FilterCols per request).
	textCol, timeCol, geoCol string

	lookups *engine.LookupCache
	plans   *planCache
	results ResultCache
	// local is the built-in cache underneath results (the same value unless
	// GatewayConfig.WrapResultCache put a peer-aware cache on top): the flush
	// hook reclaims dead versions from it directly.
	local   *resultCache
	admit   *admission
	metrics *Metrics
	ingest  *engine.Ingestor
	// ingestMu orders Ingest calls' vocabulary interning as their Adds.
	ingestMu sync.Mutex
	// unhookFlush removes the server's DB flush hook on Close, so a closed
	// server is no longer reachable from a dataset that outlives it.
	unhookFlush func()

	// Session-aware serving state (nil when the result cache is disabled:
	// with nothing to warm or share, every request simply computes).
	regions    *regionIndex   // containment index (nil: subsumption disabled)
	prefetched *prefetchMarks // speculative keys awaiting their first live hit

	// rewriteMu serializes Rewriter.Rewrite: rewriters are not required to
	// be concurrency-safe (the MDP agent's Q-network reuses forward-pass
	// scratch buffers). Only cold plan-cache paths take it; cached shapes
	// never plan again.
	rewriteMu sync.Mutex

	// Lifecycle: draining is one-way (see lifecycle.go). faultHook is the
	// test-only fault injection point for the panic-recovery middleware.
	draining  atomic.Bool
	closeOnce sync.Once
	closeErr  error
	faultHook atomic.Pointer[func(string)]

	// prefetches tracks admitted prefetch goroutines so Close can wait for
	// them; prefetchMu orders Prefetch's draining check and Add against
	// Close's Drain, so no Add can follow Close's Wait.
	prefetchMu sync.Mutex
	prefetches sync.WaitGroup
}

// NewServer creates a middleware over a dataset using the given rewriter
// and the default serving configuration. It fails if the dataset is missing
// its main table or has neither a time nor a point filter column (no
// spatio-temporal request could ever be served).
func NewServer(ds *workload.Dataset, rw core.Rewriter, space core.SpaceSpec, defaultBudgetMs float64) (*Server, error) {
	return NewServerWithConfig(ds, rw, space, ServerConfig{DefaultBudgetMs: defaultBudgetMs})
}

// NewServerWithConfig is NewServer with explicit serving knobs. Serving is
// exact-only: it fails if space holds any approximation rule. Every answer is
// counted from its predicates' posting lists (engine.Counter), so it also
// fails if the text, time or point filter column it resolves lacks the index
// that serves its predicate: inverted, B-tree or R-tree.
func NewServerWithConfig(ds *workload.Dataset, rw core.Rewriter, space core.SpaceSpec, cfg ServerConfig) (*Server, error) {
	if n := len(space.ApproxRules); n > 0 {
		return nil, fmt.Errorf("middleware: serving is exact-only, but the option space has %d approximation rules", n)
	}
	t := ds.DB.Table(ds.Main)
	if t == nil {
		return nil, fmt.Errorf("middleware: dataset has no table %q", ds.Main)
	}
	cfg = cfg.normalized()
	s := &Server{
		DS:       ds,
		Rewriter: rw,
		Space:    space,
		cfg:      cfg,
		table:    t,
		lookups:  engine.NewLookupCacheWithCap(lookupCacheCap),
		plans:    newPlanCache(cfg.PlanCacheSize),
		local:    newResultCache(cfg.ResultCacheSize),
		admit:    newAdmission(defaultConcurrency(), admitQueueCap),
		metrics:  NewMetrics(),
	}
	s.results = s.local
	if cfg.ResultCacheSize > 0 {
		s.prefetched = newPrefetchMarks(0)
		s.regions = newRegionIndex(0)
	}
	for _, col := range ds.FilterCols {
		if !t.HasColumn(col) {
			continue
		}
		var slot *string
		var kind engine.IndexKind
		switch t.Col(col).Type {
		case engine.ColText:
			slot, kind = &s.textCol, engine.IndexInverted
		case engine.ColTime:
			slot, kind = &s.timeCol, engine.IndexBTree
		case engine.ColPoint:
			slot, kind = &s.geoCol, engine.IndexRTree
		default:
			continue
		}
		if *slot != "" {
			continue
		}
		if ix := t.Index(col); ix == nil || ix.Kind != kind {
			return nil, fmt.Errorf("middleware: dataset %q filter column %q has no %v index", ds.Name, col, kind)
		}
		*slot = col
	}
	if s.timeCol == "" && s.geoCol == "" {
		return nil, fmt.Errorf("middleware: dataset %q has neither a time nor a point filter column", ds.Name)
	}
	ing, err := engine.NewIngestor(ds.DB, ds.Main, engine.IngestorConfig{})
	if err != nil {
		return nil, err
	}
	ing.SetOnFlush(func(fs engine.FlushStats) {
		s.metrics.ingestRows.Add(int64(fs.Rows))
		s.metrics.ingestFlushes.Add(1)
		s.metrics.flushLatency.observe(fs.Took)
	})
	s.ingest = ing
	// Correctness under ingest comes from version-carrying cache keys; this
	// hook only reclaims the memory of entries the new version orphaned —
	// otherwise they leave by LRU eviction alone, and the faster cold builds
	// get, the more (shape × version) entries a reader parks between flushes.
	// It runs outside the data lock, one cache lock at a time, and fires for
	// any flush on the shared DB, including one applied through a different
	// replica's ingestor. Every read is at the current version, so plans,
	// results and containment families below it are all dead.
	s.unhookFlush = ds.DB.OnFlush(func(table string, version uint64) {
		if table != s.DS.Main {
			return
		}
		s.lookups.InvalidateTable(table)
		s.plans.dropBelow(version)
		s.local.dropBelow(version)
		if s.regions != nil {
			s.regions.dropBelow(version)
		}
	})
	return s, nil
}

// DataVersion returns the current data version of the server's main table.
// The cluster tier reads it to reject cross-version peer-cache traffic.
func (s *Server) DataVersion() uint64 { return s.table.DataVersion() }

// Ingestor exposes the server's ingest batcher (tests and tooling).
func (s *Server) Ingestor() *engine.Ingestor { return s.ingest }

// IngestResult reports what one Ingest call did.
type IngestResult struct {
	// Accepted is the number of rows buffered (all or none).
	Accepted int `json:"accepted"`
	// Flushed reports whether the rows are already applied and visible.
	Flushed bool `json:"flushed"`
	// Version is the table's data version after the call — the version the
	// rows are (or will be) visible at only when Flushed is true.
	Version uint64 `json:"version"`
	// Pending is the buffered row count still awaiting a flush.
	Pending int `json:"pending"`
}

// Ingest appends rows (the JSON wire form, converted via
// workload.RowsToBatch) through the adaptive batcher. sync forces a flush
// before returning, so the rows are visible — and every cache layer is on
// the new version — when the call returns.
//
// Conversion interns new words, and a WAL replay re-interns them in the order
// the batches were applied. ingestMu keeps the two orders one: no other
// Ingest interns between this call's conversion and its Add. A draining or
// closed server returns ErrDraining before converting anything; Close shuts
// the batcher under ingestMu, so an Ingest that passed that check adds to an
// open batcher.
func (s *Server) Ingest(rows []map[string]any, sync bool) (IngestResult, error) {
	s.ingestMu.Lock()
	if s.Draining() {
		s.ingestMu.Unlock()
		return IngestResult{}, ErrDraining
	}
	b, err := workload.RowsToBatch(s.DS, rows)
	if err != nil {
		s.ingestMu.Unlock()
		return IngestResult{}, badRequestf("bad ingest rows: %v", err)
	}
	flushed, err := s.ingest.Add(b)
	s.ingestMu.Unlock()
	if err != nil {
		return IngestResult{}, badRequestf("ingest rejected: %v", err)
	}
	if sync && !flushed {
		if _, err := s.ingest.Flush(); err != nil {
			return IngestResult{}, err
		}
		flushed = true
	}
	return IngestResult{
		Accepted: len(rows),
		Flushed:  flushed,
		Version:  s.table.DataVersion(),
		Pending:  s.ingest.Pending(),
	}, nil
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// BuildQuery translates a request into the engine query.
func (s *Server) BuildQuery(req Request) (*engine.Query, error) {
	q := &engine.Query{Table: s.DS.Main, OutputCols: append([]string(nil), s.DS.OutputCols...)}
	var preds []engine.Predicate
	if req.Keyword != "" {
		if s.textCol == "" {
			return nil, badRequestf("dataset has no text column for keyword %q", req.Keyword)
		}
		id := s.table.Vocab.ID(req.Keyword)
		if id == 0 {
			return nil, badRequestf("unknown keyword %q", req.Keyword)
		}
		preds = append(preds, engine.Predicate{
			Col: s.textCol, Kind: engine.PredKeyword, Word: id, WordText: req.Keyword,
		})
	}
	if !req.From.IsZero() || !req.To.IsZero() {
		if s.timeCol == "" {
			return nil, badRequestf("dataset has no time column")
		}
		if !req.From.IsZero() && !req.To.IsZero() && req.From.After(req.To) {
			return nil, badRequestf("time window is inverted: from %s is after to %s",
				req.From.Format(time.RFC3339), req.To.Format(time.RFC3339))
		}
		preds = append(preds, engine.Predicate{
			Col: s.timeCol, Kind: engine.PredRange,
			Lo: float64(req.From.UnixMilli()), Hi: float64(req.To.UnixMilli()),
		})
	}
	// An inverted box has zero area, so without this check it would drop
	// the geo predicate and be served the whole dataset extent.
	if r := req.Region; r.MinLon > r.MaxLon || r.MinLat > r.MaxLat {
		return nil, badRequestf("region is inverted: min (%g, %g) exceeds max (%g, %g)",
			r.MinLon, r.MinLat, r.MaxLon, r.MaxLat)
	}
	if req.Region.Area() > 0 {
		if s.geoCol == "" {
			return nil, badRequestf("dataset has no point column")
		}
		preds = append(preds, engine.Predicate{Col: s.geoCol, Kind: engine.PredGeo, Box: req.Region})
	}
	if len(preds) == 0 {
		return nil, badRequestf("request has no conditions")
	}
	q.Preds = preds
	return q, nil
}

// Handle serves one request end to end: build SQL, rewrite under the
// budget, count the chosen rewritten query's rows from its predicates'
// posting lists, bin them — reusing cached plans and results where possible.
//
// The returned Response may be shared with the result cache and with
// concurrent requests for the same shape: treat it as immutable. (Disable
// the result cache via ServerConfig to get per-call private responses.)
func (s *Server) Handle(req Request) (*Response, error) {
	resp, _, err := s.handle(context.Background(), req, false)
	return resp, err
}

// Prefetch speculatively warms the result cache with req and returns at
// once. The prefetch takes an admission slot only if one is idle (see
// admission.tryPrefetch) — otherwise it is counted as shed — and then runs
// to completion on its own goroutine like a live request, so it can never
// cause a rejection a live request wouldn't have seen. No-op when the
// result cache is disabled (nothing to warm) or the server is draining.
func (s *Server) Prefetch(req Request) {
	if s.prefetched == nil {
		return
	}
	s.prefetchMu.Lock()
	defer s.prefetchMu.Unlock()
	if s.Draining() {
		return // speculative work is the first casualty of shutdown
	}
	s.metrics.prefetchIssued.Add(1)
	if !s.admit.tryPrefetch() {
		s.metrics.prefetchShed.Add(1)
		return
	}
	s.prefetches.Add(1)
	go func() {
		defer s.prefetches.Done()
		defer s.admit.releasePrefetch()
		guardPanics(s.metrics, "prefetch", func() {
			s.fault("prefetch")
			_, _, _ = s.handle(context.Background(), req, true)
		})
	}()
}

// effectiveBudget resolves a request's budget: zero/negative falls back to
// the server default. Admission deadlines, the rewrite decision, and the
// result-cache key all use this one resolution.
func (s *Server) effectiveBudget(req Request) float64 {
	if req.BudgetMs > 0 {
		return req.BudgetMs
	}
	return s.cfg.DefaultBudgetMs
}

// planned is one request resolved through the plan cache and the rewriter:
// everything handle needs before touching the result cache, and everything
// ResultKeyFor needs to name the request's result.
type planned struct {
	budget   float64
	sig      string
	out      core.Outcome
	rq       *engine.Query
	hint     engine.Hint
	optLabel string
	rkey     ResultKey
	fam      famKey
	// counter is the engine.Counter of the context build this resolution
	// ran, nil on a plan-cache hit: its Result is the answer of every exact
	// option, so the miss that built the plan serves it.
	counter *engine.Counter
}

// plan resolves a request to its rewrite decision and result-cache key
// without executing anything: build the query, reuse (or build) the shape's
// ground-truth context, memoize the per-budget rewrite decision, and derive
// the ResultKey. count selects whether the plan-cache counters observe this
// resolution — the serving path counts, the routing-side key computation
// (Server.ResultKeyFor) does not, so a request keyed on one replica and
// served on another is not double-counted. Speculative and live resolutions
// build identically, so a live request that hits a prefetch's cached context
// gets exactly the context it would have built.
//
// Callers must hold the DB's data read lock (see handle): the plan-cache key
// and the ResultKey both embed the data version, and the version must stay
// paired with the data the context build reads.
func (s *Server) plan(req Request, count bool) (planned, error) {
	p := planned{budget: s.effectiveBudget(req)}
	q, err := s.BuildQuery(req)
	if err != nil {
		return p, err
	}
	version := s.table.DataVersion()

	kind := req.Kind
	switch kind {
	case VizScatter, VizCount, VizDistinct:
	default:
		kind = VizHeatmap
	}
	if kind == VizDistinct && s.textCol == "" {
		return p, badRequestf("dataset has no text column for a distinct-words request")
	}
	gw, gh := req.GridW, req.GridH
	if kind == VizCount || kind == VizDistinct {
		// Aggregate answers have no grid; zeroing it keeps stray grid params
		// from splitting otherwise-identical cache keys.
		gw, gh = 0, 0
	} else {
		if gw <= 0 {
			gw = 64
		}
		if gh <= 0 {
			gh = 64
		}
	}

	// Plan cache: one ground-truth context per (data version, query shape).
	// Concurrent first requests for a shape may each build it; the first
	// insert wins and the rest share that entry. The version in the key
	// retires every pre-flush context at a flush — ground truth (row counts,
	// selectivities, per-option timings) is data-dependent, so a stale
	// context would mis-plan and, worse, mis-trace post-flush answers.
	// Trace.SQL stays the pure signature. Every viz kind of one SQL shape
	// shares the context: the kind only decides how the rows are folded.
	p.sig = q.SQL(engine.Hint{})
	entry, hit, err := s.plans.get(planKey{version: version, sig: p.sig}, func() (*core.QueryContext, error) {
		ccfg := core.DefaultContextConfig(s.Space)
		ccfg.Lookups = s.lookups
		ctx, counter, err := core.BuildContextRows(s.DS.DB, q, ccfg)
		p.counter = counter
		return ctx, err
	})
	if count {
		if hit {
			s.metrics.planHits.Add(1)
		} else {
			s.metrics.planMisses.Add(1)
		}
	}
	if err != nil {
		return p, err
	}
	ctx := entry.ctx

	// Per-budget rewrite decision, memoized on the entry. The rewrite
	// itself is serialized (see rewriteMu).
	p.out = entry.outcome(p.budget, func() core.Outcome {
		s.rewriteMu.Lock()
		defer s.rewriteMu.Unlock()
		return s.Rewriter.Rewrite(ctx, p.budget)
	})

	p.rq, p.hint = q, engine.Hint{}
	p.optLabel = "original"
	if p.out.Option >= 0 {
		p.rq, p.hint = core.BuildRQ(q, ctx.Options[p.out.Option], ctx.EstRows, ctx.Scale)
		p.optLabel = ctx.Options[p.out.Option].Label(len(q.Preds))
	}

	p.rkey = ResultKey{
		SQL: p.rq.SQL(p.hint), Kind: kind, GridW: gw, GridH: gh,
		Region: s.regionOrExtent(req), Budget: p.budget, DataVersion: version,
	}
	// The subsumption family: everything the key pins except the
	// region/grid geometry. Time bounds collapse to the same instants the
	// query predicate uses, so two spellings of one window share a family.
	p.fam = famKey{
		keyword: req.Keyword,
		fromMs:  req.From.UnixMilli(),
		toMs:    req.To.UnixMilli(),
		kind:    kind,
		budget:  p.budget,
		version: version,
	}
	return p, nil
}

// ResultKeyFor resolves a request to the result-cache key the serving path
// would use, without executing or touching the result cache. The key is a
// deterministic function of (dataset, request, budget) — every replica
// computes the same one — which is what lets the cluster routing tier send
// a request to the replica that owns its key (one key space for routing and
// peer ownership). Cold shapes pay the ground-truth context build here,
// exactly as serving them would; warm shapes are two cache lookups.
func (s *Server) ResultKeyFor(req Request) (ResultKey, error) {
	s.DS.DB.RLockData()
	defer s.DS.DB.RUnlockData()
	p, err := s.plan(req, false)
	return p.rkey, err
}

// responseShell builds a response with the planned request's own trace,
// leaving Bins/Points for the caller. A sliced (subsumed) response and a
// directly-counted one therefore carry identical traces: the plan runs for
// every request either way, and every trace field is a deterministic
// function of (data version, shape, budget) — never of how the bins were
// obtained.
func responseShell(p planned) *Response {
	return &Response{
		Kind:  p.rkey.Kind,
		GridW: p.rkey.GridW,
		GridH: p.rkey.GridH,
		Trace: Trace{
			SQL:          p.sig,
			RewrittenSQL: p.rkey.SQL,
			Option:       p.optLabel,
			BudgetMs:     p.budget,
			PlanMs:       p.out.PlanMs,
			ExecMs:       p.out.ExecMs,
			TotalMs:      p.out.TotalMs,
			Viable:       p.out.Viable,
			Quality:      p.out.Quality,
			NumExplored:  p.out.Explored,
		},
	}
}

// source says where handle found a response. Anything but computed is an
// X-Cache hit; only fromCache writes stored bytes (see Response.WriteJSON).
type source uint8

const (
	computed  source = iota // counted and folded by this request
	sliced                  // cut from a cached containing heatmap
	fromCache               // read back from the result cache
)

// handle is Handle plus where the response came from (see source). prefetch
// marks the speculative path: plan-cache and result-cache counters skip it,
// computed entries are remembered so their first live consumer counts as a
// prefetch hit.
//
// ctx is the request's cancellation scope (the HTTP path passes
// r.Context()): a result-cache miss checks it once, before it counts, and a
// done context gets ErrCanceled instead of an answer nobody will read. Cache
// hits and the plan are served regardless.
//
// The whole plan+probe+count sequence runs under the DB's data read lock,
// so it observes exactly one (data, version) pair: an ingest flush either
// happens entirely before this request (which then plans, counts, and
// caches at the new version) or entirely after it. That lock is what turns
// "version-stamped keys" into the stale-read guarantee.
func (s *Server) handle(ctx context.Context, req Request, prefetch bool) (*Response, source, error) {
	s.DS.DB.RLockData()
	defer s.DS.DB.RUnlockData()
	p, err := s.plan(req, !prefetch)
	if err != nil {
		return nil, computed, err
	}

	// Result cache: repeated (rewritten SQL, kind, grid, region, budget,
	// version) shapes skip counting and binning entirely. In a cluster, Get
	// may be answered by the key's owning replica's cache (internal/cluster).
	rkey := p.rkey
	if resp := s.results.Get(rkey); resp != nil {
		if !prefetch {
			s.metrics.resultHits.Add(1)
			s.notePrefetchHit(rkey)
			s.noteOutcome(resp)
		}
		return resp, fromCache, nil
	}
	// Containment: a cached result whose region contains this one, with
	// exactly-aligned cells, answers by slicing — byte-identical to direct
	// execution (see subsume.go).
	if resp := s.subsumeFromCache(p, prefetch); resp != nil {
		if !prefetch {
			s.metrics.resultHits.Add(1)
			s.noteOutcome(resp)
		}
		return resp, sliced, nil
	}

	if !prefetch {
		s.metrics.resultMisses.Add(1)
	}

	// Every miss serves its exact option from the posting lists' intersection:
	// the build's Counter when this miss built the plan, otherwise a fresh one
	// over the shared lookup cache. NewServerWithConfig checked that every
	// filter column has its index, so a shape that cannot be counted is a bug.
	if ctx.Err() != nil {
		return nil, computed, s.canceled(ctx)
	}
	counter := p.counter
	if counter == nil {
		if counter = s.DS.DB.NewCounter(p.rq, s.lookups); counter == nil {
			return nil, computed, fmt.Errorf("middleware: %s cannot be counted", p.rkey.SQL)
		}
	}
	resp := s.fold(p, counter.Result())
	s.putResult(p, resp, prefetch)
	if prefetch {
		s.metrics.prefetchComputed.Add(1)
	} else {
		s.noteOutcome(resp)
	}
	return resp, computed, nil
}

// canceled counts one miss abandoned because ctx is done and returns the
// error that reports it. Virtual budgets never cancel — a blown budget still
// wants its (non-viable) answer — so the only trigger is the context itself.
func (s *Server) canceled(ctx context.Context) error {
	s.metrics.execCanceled.Add(1)
	return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
}

// fold builds p's response from the rows of its query: the points, the
// count, the distinct words or the binned grid, as p's kind asks.
func (s *Server) fold(p planned, res *engine.Result) *Response {
	resp := responseShell(p)
	switch p.rkey.Kind {
	case VizScatter:
		resp.Points = res.Points
	case VizCount:
		v := float64(len(res.RowIDs))
		resp.Value = &v
	case VizDistinct:
		v := float64(engine.DistinctWordsExact(s.table, res.RowIDs, s.textCol))
		resp.Value = &v
	default:
		grid := viz.NewGrid(p.rkey.Region, p.rkey.GridW, p.rkey.GridH)
		resp.Bins = grid.Counts(res.Points, res.Weight)
	}
	return resp
}

// ResultCache exposes the server's (possibly wrapped) result cache for
// diagnostics — cluster peer endpoints answer fetches from it directly.
func (s *Server) ResultCache() ResultCache { return s.results }

// noteOutcome updates per-response serving metrics.
func (s *Server) noteOutcome(resp *Response) {
	if !resp.Trace.Viable {
		s.metrics.budgetViolations.Add(1)
	}
}

func (s *Server) regionOrExtent(req Request) engine.Rect {
	if req.Region.Area() > 0 {
		return req.Region
	}
	return s.DS.Extent
}
