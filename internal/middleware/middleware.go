package middleware

import (
	"context"
	"fmt"
	"runtime"
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
	// TTL is the request's staleness tolerance (the parsed form of the
	// `/* ttl:N */` wire hint): zero demands the current data version, a
	// positive value lets the server answer from a cached result computed at
	// any data version that was current within the last TTL of wall time.
	// TTL only widens the result-cache probe — it never changes what gets
	// computed or stored.
	TTL time.Duration `json:"ttl,omitempty"`
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
	// ResultTTL is the result-cache entry lifetime. Default 30s.
	ResultTTL time.Duration
	// MaxConcurrent bounds in-flight request execution. Default
	// 4×GOMAXPROCS; negative disables admission control.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it requests are
	// rejected with 429. Default 256.
	MaxQueue int
	// QueueTimeout caps how long a request may wait for a slot; the
	// effective per-request deadline is min(QueueTimeout, its budget_ms
	// as real time). Default 1s.
	QueueTimeout time.Duration
	// Ingest tunes the server's adaptive ingest batcher (zero values pick
	// the engine defaults; see engine.IngestorConfig).
	Ingest engine.IngestorConfig
	// WrapResultCache, when set, wraps the server's built-in result cache
	// before first use — the extension point internal/cluster uses to layer
	// a peer-aware cache (local miss → fetch from the key's owning replica)
	// over the local cache. It must return a ResultCache honoring
	// the same contract; returning the argument unchanged is a no-op. Not
	// called when the result cache is disabled (ResultCacheSize < 0):
	// layering peer round trips over a cache that drops everything would
	// cost latency and never hit.
	WrapResultCache func(local ResultCache) ResultCache
	// Now overrides the result-cache clock (tests). Default time.Now.
	Now func() time.Time
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
	if c.ResultTTL <= 0 {
		c.ResultTTL = 30 * time.Second
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
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
// It is safe for concurrent use; see ServerConfig for the caching and
// admission knobs.
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
	// WrapResultCache put a peer-aware cache on top): the flush hook reclaims
	// dead versions from it directly.
	local   *resultCache
	admit   *admission
	metrics *Metrics
	ingest  *engine.Ingestor
	// unhookFlush removes the server's DB flush hook on Close, so a closed
	// server is no longer reachable from a dataset that outlives it.
	unhookFlush func()

	// Session-aware serving state (nil when the result cache is disabled:
	// with nothing to warm or share, every request simply executes).
	regions    *regionIndex   // containment index (nil: subsumption disabled)
	prefetched *prefetchMarks // speculative keys awaiting their first live hit

	// rewriteMu serializes Rewriter.Rewrite: rewriters are not required to
	// be concurrency-safe (the MDP agent's Q-network reuses forward-pass
	// scratch buffers). Only cold plan-cache paths take it; cached shapes
	// never plan again.
	rewriteMu sync.Mutex

	// Lifecycle: serving → draining → closed, one-way (see lifecycle.go).
	// faultHook is the test-only fault injection point for the panic-recovery
	// middleware.
	state     atomic.Int32
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
// exact-only: it fails if space holds any approximation rule.
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
		local:    newResultCache(cfg.ResultCacheSize, cfg.ResultTTL, cfg.Now),
		admit:    newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		metrics:  NewMetrics(),
	}
	s.results = s.local
	if cfg.ResultCacheSize > 0 {
		s.prefetched = newPrefetchMarks(0)
		s.regions = newRegionIndex(0)
	}
	if cfg.WrapResultCache != nil && s.local != nil {
		s.results = cfg.WrapResultCache(s.local)
		if s.results == nil {
			return nil, fmt.Errorf("middleware: WrapResultCache returned a nil ResultCache")
		}
	}
	for _, col := range ds.FilterCols {
		if !t.HasColumn(col) {
			continue
		}
		switch t.Col(col).Type {
		case engine.ColText:
			if s.textCol == "" {
				s.textCol = col
			}
		case engine.ColTime:
			if s.timeCol == "" {
				s.timeCol = col
			}
		case engine.ColPoint:
			if s.geoCol == "" {
				s.geoCol = col
			}
		}
	}
	if s.timeCol == "" && s.geoCol == "" {
		return nil, fmt.Errorf("middleware: dataset %q has neither a time nor a point filter column", ds.Name)
	}
	ing, err := engine.NewIngestor(ds.DB, ds.Main, cfg.Ingest)
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
	// otherwise they leave by LRU/TTL alone, and the faster cold builds get,
	// the more (shape × version) entries a reader parks between flushes. It
	// runs outside the data lock, one cache lock at a time, and fires for any
	// flush on the shared DB, including one applied through a different
	// replica's ingestor. Plans are only ever asked for at the current
	// version; results and their containment index stay reachable through the
	// /* ttl:N */ probe window, so those keep the last maxStaleProbes versions.
	s.unhookFlush = ds.DB.OnFlush(func(table string, version uint64) {
		if table != s.DS.Main {
			return
		}
		s.lookups.InvalidateTable(table)
		if t := ds.DB.Table(table); t != nil {
			for _, sample := range t.Samples {
				s.lookups.InvalidateTable(sample.Name)
			}
		}
		s.plans.dropBelow(version)
		if version > maxStaleProbes {
			s.local.dropBelow(version - maxStaleProbes)
			if s.regions != nil {
				s.regions.dropBelow(version - maxStaleProbes)
			}
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
func (s *Server) Ingest(rows []map[string]any, sync bool) (IngestResult, error) {
	b, err := workload.RowsToBatch(s.DS, rows)
	if err != nil {
		return IngestResult{}, badRequestf("bad ingest rows: %v", err)
	}
	flushed, err := s.ingest.Add(b)
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

// Config returns the normalized serving configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

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
// budget, execute the chosen rewritten query, bin the result — reusing
// cached plans and results where possible.
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
// cause a rejection a live request wouldn't have seen. The staleness hint
// is stripped: speculative entries are only ever stored under the current
// data version, never reachable solely via `/* ttl:N */`. No-op when the
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
	req.TTL = 0
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
	// ran, nil on a plan-cache hit or an uncountable shape: on the miss
	// that built the plan, its Result is the answer of every exact option.
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
	// insert wins and the rest share that entry. The version
	// prefix retires every pre-flush context at a flush — ground truth (row
	// counts, selectivities, per-option timings) is data-dependent, so a
	// stale context would mis-plan and, worse, mis-trace post-flush answers.
	// Trace.SQL stays the pure signature. Every viz kind of one SQL shape
	// shares the context: the kind only decides how the rows are folded.
	p.sig = q.SQL(engine.Hint{})
	entry, hit, err := s.plans.get(planCacheKey(version, p.sig), func() (*core.QueryContext, error) {
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

// maxStaleProbes caps how many historical versions a ttl-hinted request may
// probe in the result cache — the "bounded version window" of the staleness
// contract.
const maxStaleProbes = 8

// responseShell builds a response with the planned request's own trace,
// leaving Bins/Points for the caller. A sliced (subsumed) response and a
// directly-executed one therefore carry identical traces: the plan runs for
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

// handle is Handle plus a flag reporting whether the response came without
// executing here (cache hit or subsumption slice — surfaced as the X-Cache
// header). prefetch marks the
// speculative path: plan-cache and result-cache counters skip it, computed
// entries are remembered so their first live consumer counts as a prefetch
// hit, and staleness hints never apply (Server.Prefetch strips TTL).
//
// ctx is the request's cancellation scope: when it has a Done channel (the
// HTTP path passes r.Context()), the execution checks it at every yield
// stride and aborts once the client is gone — a disconnected pan/zoom burst
// must not keep burning worker slots on answers nobody will read. Cache and
// plan layers are unaffected; only the engine execution is cancelable.
//
// The whole plan+probe+execute sequence runs under the DB's data read lock,
// so it observes exactly one (data, version) pair: an ingest flush either
// happens entirely before this request (which then plans, executes, and
// caches at the new version) or entirely after it. That lock is what turns
// "version-stamped keys" into the stale-read guarantee.
func (s *Server) handle(ctx context.Context, req Request, prefetch bool) (*Response, bool, error) {
	s.DS.DB.RLockData()
	defer s.DS.DB.RUnlockData()
	p, err := s.plan(req, !prefetch)
	if err != nil {
		return nil, false, err
	}

	// Result cache: repeated (rewritten SQL, kind, grid, region, budget,
	// version) shapes skip execution and binning entirely. In a cluster, Get
	// may be answered by the key's owning replica's cache (internal/cluster).
	rkey := p.rkey
	if resp := s.results.Get(rkey); resp != nil {
		if !prefetch {
			s.metrics.resultHits.Add(1)
			s.notePrefetchHit(rkey)
			s.noteOutcome(resp)
		}
		return resp, true, nil
	}
	// Staleness-tolerance hint: probe bounded-recent versions before paying
	// for execution. Strictly a wider lookup — a stale hit is served as-is
	// (its trace and bins are exactly the old version's answer) and nothing
	// is ever stored under an old version's key. Subsumption never joins in
	// here: containment candidates live at the current version only.
	if req.TTL > 0 && !prefetch {
		versions := s.table.VersionsWithin(req.TTL, s.cfg.Now())
		if len(versions) > maxStaleProbes+1 {
			versions = versions[:maxStaleProbes+1]
		}
		for _, v := range versions[1:] { // [0] is current, already probed
			k := rkey
			k.DataVersion = v
			if resp := s.results.Get(k); resp != nil {
				s.metrics.resultHits.Add(1)
				s.metrics.staleHits.Add(1)
				s.noteOutcome(resp)
				return resp, true, nil
			}
		}
	}

	// Containment: a cached result whose region contains this one, with
	// exactly-aligned cells, answers by slicing — byte-identical to direct
	// execution (see subsume.go).
	if resp := s.subsumeFromCache(p, prefetch); resp != nil {
		if !prefetch {
			s.metrics.resultHits.Add(1)
			s.noteOutcome(resp)
		}
		return resp, true, nil
	}

	if !prefetch {
		s.metrics.resultMisses.Add(1)
	}

	// The miss that built the plan serves an exact option from the rows its
	// build already counted; every other miss executes the plan.
	var res *engine.Result
	if p.counter != nil {
		if ctx.Err() != nil {
			return nil, false, s.canceled(ctx) // as the executor's first yield would
		}
		res = p.counter.Result()
	} else {
		var yield func()
		if ctx.Done() != nil {
			yield = s.cancelYield(ctx)
		}
		if res, _, err = s.DS.DB.RunCachedYield(p.rq, p.hint, s.lookups, yield); err != nil {
			return nil, false, err
		}
	}
	resp := responseShell(p)
	switch rkey.Kind {
	case VizScatter:
		resp.Points = res.Points
	case VizCount:
		v := float64(len(res.RowIDs))
		resp.Value = &v
	case VizDistinct:
		v := float64(engine.DistinctWordsExact(s.table, res.RowIDs, s.textCol))
		resp.Value = &v
	default:
		grid := viz.NewGrid(rkey.Region, rkey.GridW, rkey.GridH)
		resp.Bins = grid.Counts(res.Points, res.Weight)
	}
	s.putResult(p, resp, prefetch)
	if prefetch {
		s.metrics.prefetchComputed.Add(1)
	} else {
		s.noteOutcome(resp)
	}
	return resp, false, nil
}

// cancelYield returns the live path's cooperative-cancellation hook: each
// executor yield checks whether the request's context is done (client
// disconnected, caller deadline blown) and aborts the zombie execution
// instead of finishing an answer nobody will read. Virtual budgets
// deliberately do not cancel — a blown budget still wants its (non-viable)
// answer — so the only trigger is the context itself. When the hook never
// fires, execution is byte-identical to an unhooked run (pinned by
// TestCancelCheckYieldPreservesResults in the engine).
func (s *Server) cancelYield(ctx context.Context) func() {
	return func() {
		select {
		case <-ctx.Done():
			engine.AbortExec(s.canceled(ctx))
		default:
		}
	}
}

// canceled counts one execution abandoned because ctx is done and returns
// the error that reports it.
func (s *Server) canceled(ctx context.Context) error {
	s.metrics.execCanceled.Add(1)
	return fmt.Errorf("%w: %v", engine.ErrExecCanceled, context.Cause(ctx))
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
