package middleware

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// RewriterFactory builds the rewriter for one dataset. The gateway calls it
// once per dataset, during warming, so an expensive factory (training an MDP
// agent) never runs on a request goroutine. Each dataset gets its own
// rewriter instance: rewriters are not required to be concurrency-safe, and
// every Server serializes only its own rewriter. name is the dataset's
// registry key (what requests pass in ?dataset=), which may differ from the
// generated dataset's display Name — factories keyed by user-facing
// configuration (e.g. per-dataset agent snapshots) should match on name.
type RewriterFactory func(name string, ds *workload.Dataset) (core.Rewriter, error)

// OracleFactory is the zero-training factory: every dataset gets the
// ground-truth Oracle rewriter.
func OracleFactory(string, *workload.Dataset) (core.Rewriter, error) {
	return core.OracleRewriter{}, nil
}

// GatewayConfig configures a multi-dataset gateway.
type GatewayConfig struct {
	// Server is the per-dataset serving template. Its MaxConcurrent and
	// MaxQueue size ONE admission budget shared by every dataset — a
	// gateway sheds load globally, not per dataset.
	Server ServerConfig
	// DefaultDataset answers requests without a ?dataset parameter.
	// Defaults to the registry's first registered name, which keeps
	// single-dataset clients (the PR 2 wire format) working unchanged.
	DefaultDataset string
	// Space is the rewrite option space every dataset serves under.
	Space core.SpaceSpec
	// WrapResultCache, when set, wraps each dataset's result cache as its
	// Server is built (internal/cluster installs the peer-shared cache
	// here). It runs once per dataset, on the build goroutine, with the
	// dataset's registry name and its freshly-built local cache — and not
	// at all when the result cache is disabled (see
	// ServerConfig.WrapResultCache).
	WrapResultCache func(dataset string, local ResultCache) ResultCache
	// Sessions tunes session tracking and speculative tile prefetch.
	Sessions SessionConfig
}

// gatewayEntry is one dataset's serving slot: warming until done closes,
// then either a ready Server or a cached construction error.
type gatewayEntry struct {
	done chan struct{}
	srv  *Server
	err  error
}

// state reports the entry's lifecycle for routing and /datasets.
func (e *gatewayEntry) state() workload.Status {
	select {
	case <-e.done:
		if e.err != nil {
			return workload.StatusFailed
		}
		return workload.StatusReady
	default:
		return workload.StatusWarming
	}
}

// Gateway serves visualization traffic for every dataset in a registry
// through per-dataset Server instances that share one admission budget. A
// dataset's engine state (the generated dataset, its rewriter, caches, and
// lookup cache) is built lazily on first touch, exactly once (single-flight);
// requests arriving while it warms get 503 + Retry-After instead of
// blocking. A Gateway response is byte-identical to the response the
// equivalent standalone single-dataset Server would produce, because routing
// reuses the Server path unchanged.
type Gateway struct {
	reg         *workload.Registry
	factory     RewriterFactory
	cfg         GatewayConfig
	defaultName string
	admit       *admission
	start       time.Time

	// mu guards entries. Reads vastly dominate (every request resolves its
	// dataset; writes happen once per dataset lifetime), so the hot path
	// takes only the read lock and datasets never serialize on each other.
	mu      sync.RWMutex
	entries map[string]*gatewayEntry

	// Session tracking + speculative prefetch (nil without a result cache).
	// observeCh feeds a single observer goroutine: observation (parse,
	// predict, hand each prediction to Server.Prefetch) runs entirely off
	// the request goroutine, so the serving path never waits behind
	// prediction bookkeeping. Enqueueing happens before the handler
	// returns, which keeps one session's observations in request order.
	sessions  *SessionTracker
	observeCh chan observation

	// Gateway-level counters; per-dataset serving counters live on each
	// Server's Metrics. gwMetrics backs the panic-recovery middleware for
	// requests that die before resolving to a dataset's Server.
	requests   atomic.Int64
	notFound   atomic.Int64
	notReady   atomic.Int64
	failedDeps atomic.Int64
	gwMetrics  *Metrics

	// Lifecycle: draining is one-way (no new work, health fails over);
	// quit stops the observer goroutine; Close is idempotent.
	draining  atomic.Bool
	quit      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewGateway builds a gateway over a registry. The registry must have at
// least one dataset, and DefaultDataset (when set) must be registered.
func NewGateway(reg *workload.Registry, factory RewriterFactory, cfg GatewayConfig) (*Gateway, error) {
	names := reg.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("middleware: gateway needs at least one registered dataset")
	}
	if factory == nil {
		factory = OracleFactory
	}
	def := cfg.DefaultDataset
	if def == "" {
		def = names[0]
	} else if reg.Status(def) == workload.StatusUnknown {
		return nil, fmt.Errorf("middleware: default dataset %q is not registered", def)
	}
	scfg := cfg.Server.normalized()
	g := &Gateway{
		reg:         reg,
		factory:     factory,
		cfg:         cfg,
		defaultName: def,
		admit:       newAdmission(scfg.MaxConcurrent, scfg.MaxQueue),
		start:       time.Now(),
		entries:     make(map[string]*gatewayEntry),
		gwMetrics:   NewMetrics(),
		quit:        make(chan struct{}),
	}
	if scfg.ResultCacheSize > 0 {
		g.sessions = NewSessionTracker(cfg.Sessions)
		g.observeCh = make(chan observation, observeQueueCap)
		go g.observeLoop()
	}
	return g, nil
}

// observation is one successfully-served viz request queued for session
// tracking: enough to re-derive the viewport and dispatch predictions.
type observation struct {
	srv  *Server
	sid  string
	body []byte
}

// observeQueueCap bounds the observer backlog. A full queue drops the
// observation — the cost is one round of predictions, never live latency.
const observeQueueCap = 256

// observeLoop is the gateway's single observer goroutine: it parses each
// observed request, advances the session tracker, and hands the predictions
// to Server.Prefetch. It runs until Close; a panic in one observation
// (tracker or prediction bug) drops that observation — counted on the
// dataset's metrics — and the loop keeps going, because losing the observer
// forever would silently disable prefetch for the gateway's whole lifetime.
func (g *Gateway) observeLoop() {
	for {
		select {
		case <-g.quit:
			return
		case obs := <-g.observeCh:
			guardPanics(obs.srv.metrics, "observe", func() {
				obs.srv.fault("observe")
				req, err := ParseRequest(obs.body)
				if err != nil || req.Region.Area() <= 0 {
					return
				}
				for _, pred := range g.sessions.Observe(obs.sid, req, obs.srv.DS.Extent) {
					obs.srv.Prefetch(pred)
				}
			})
		}
	}
}

// DefaultDataset returns the name served when a request has no ?dataset.
func (g *Gateway) DefaultDataset() string { return g.defaultName }

// ensure returns the entry for a registered name, creating it (and kicking
// off the dataset + server build on a fresh goroutine) on first touch.
// Returns nil for unregistered names.
func (g *Gateway) ensure(name string) *gatewayEntry {
	e, created := g.entry(name)
	if created {
		go g.build(name, e)
	}
	return e
}

// entry returns (creating if needed) the slot for a registered name without
// starting its build; created reports whether this call claimed the build.
// Exactly one caller per entry ever gets created=true — that caller must run
// build (inline or on a goroutine), or the entry's done channel never
// closes. Returns nil for unregistered names.
func (g *Gateway) entry(name string) (e *gatewayEntry, created bool) {
	g.mu.RLock()
	e, ok := g.entries[name]
	g.mu.RUnlock()
	if ok {
		return e, false
	}
	if g.reg.Status(name) == workload.StatusUnknown {
		return nil, false
	}
	g.mu.Lock()
	if e, ok := g.entries[name]; ok { // lost the upgrade race
		g.mu.Unlock()
		return e, false
	}
	e = &gatewayEntry{done: make(chan struct{})}
	g.entries[name] = e
	g.mu.Unlock()
	return e, true
}

// build constructs one dataset's serving state: the dataset itself (through
// the registry's own single-flight), its rewriter, and a Server whose
// caches are private but whose admission pool is the gateway's shared one.
func (g *Gateway) build(name string, e *gatewayEntry) {
	defer close(e.done)
	ds, err := g.reg.Lookup(name)
	if err != nil {
		e.err = fmt.Errorf("middleware: dataset %q: %w", name, err)
		return
	}
	rw, err := g.factory(name, ds)
	if err != nil {
		e.err = fmt.Errorf("middleware: rewriter for dataset %q: %w", name, err)
		return
	}
	scfg := g.cfg.Server
	scfg.MaxConcurrent = -1 // admission is gateway-scoped, not per server
	if wrap := g.cfg.WrapResultCache; wrap != nil {
		scfg.WrapResultCache = func(local ResultCache) ResultCache {
			return wrap(name, local)
		}
	}
	srv, err := NewServerWithConfig(ds, rw, g.cfg.Space, scfg)
	if err != nil {
		e.err = err
		return
	}
	srv.admit = g.admit
	if g.draining.Load() {
		srv.Drain() // the gateway drained while this dataset was warming
	}
	e.srv = srv
}

// Warm builds the named datasets (all registered ones when called with no
// names) and blocks until they are ready, returning the error of the first
// (lowest-index) failed dataset. Builds fan out on a GOMAXPROCS-wide worker
// pool instead of one unbounded goroutine per dataset, so a many-dataset
// cold start overlaps dataset generation and rewriter training without
// oversubscribing the machine.
// Serving binaries call it at startup so eager datasets never answer 503.
// Entries already warming (a request raced ahead) are waited on, not
// rebuilt.
func (g *Gateway) Warm(names ...string) error {
	if len(names) == 0 {
		names = g.reg.Names()
	}
	type slot struct {
		e     *gatewayEntry
		build bool
	}
	slots := make([]slot, len(names))
	for i, name := range names {
		e, created := g.entry(name)
		if e == nil {
			return fmt.Errorf("middleware: gateway: unknown dataset %q", name)
		}
		slots[i] = slot{e: e, build: created}
	}
	// The pool callback never returns an error: RunIndexed's serial path
	// stops at the first failure, which would abandon claimed-but-unbuilt
	// entries whose done channel then never closes (permanent 503s). Every
	// claimed build must run; failures are collected and reported after.
	errs := make([]error, len(names))
	_ = core.RunIndexed(len(names), 0, func(i int) error {
		if slots[i].build {
			g.build(names[i], slots[i].e)
		}
		<-slots[i].e.done
		errs[i] = slots[i].e.err
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("middleware: warming %q: %w", names[i], err)
		}
	}
	return nil
}

// Server returns the ready Server for a dataset, blocking through its build
// if necessary (tests and in-process embedding; the HTTP path never blocks).
func (g *Gateway) Server(name string) (*Server, error) {
	if name == "" {
		name = g.defaultName
	}
	e := g.ensure(name)
	if e == nil {
		return nil, fmt.Errorf("middleware: gateway: unknown dataset %q", name)
	}
	<-e.done
	return e.srv, e.err
}

// ReadyServer returns the Server for a dataset only if it is already built
// and healthy — it never blocks and never triggers a build. The cluster
// routing tier uses it to compute routing keys: the router must not stall a
// request (or kick off a dataset build on the routing goroutine) just to
// decide where to send it. Empty name means the default dataset.
func (g *Gateway) ReadyServer(name string) (*Server, bool) {
	if name == "" {
		name = g.defaultName
	}
	g.mu.RLock()
	e, ok := g.entries[name]
	g.mu.RUnlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		return e.srv, e.err == nil
	default:
		return nil, false
	}
}

// Drain stops the gateway admitting new work: /viz and /ingest answer 503 +
// Retry-After, the health rollup reports "draining" (health-checked routing
// fails over), and every built dataset Server drains too — which also stops
// its speculative prefetch. In-flight requests run to completion. One-way.
func (g *Gateway) Drain() {
	if !g.draining.CompareAndSwap(false, true) {
		return
	}
	g.mu.RLock()
	entries := make([]*gatewayEntry, 0, len(g.entries))
	for _, e := range g.entries {
		entries = append(entries, e)
	}
	g.mu.RUnlock()
	for _, e := range entries {
		select {
		case <-e.done:
			if e.srv != nil {
				e.srv.Drain()
			}
		default:
			// Still warming: build() drains it on completion.
		}
	}
}

// Close drains the gateway, stops the observer goroutine, and closes every
// built dataset Server — each one's ingest batcher flushes buffered rows, so
// acknowledged async writes are applied (and WAL-logged, when attached)
// before Close returns. Builds still in flight are waited for and then
// closed. Idempotent; later calls return the first error.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		g.Drain()
		close(g.quit)
		g.mu.RLock()
		entries := make(map[string]*gatewayEntry, len(g.entries))
		for name, e := range g.entries {
			entries[name] = e
		}
		g.mu.RUnlock()
		for name, e := range entries {
			<-e.done
			if e.srv == nil {
				continue
			}
			if err := e.srv.Close(); err != nil && g.closeErr == nil {
				g.closeErr = fmt.Errorf("middleware: closing dataset %q: %w", name, err)
			}
		}
	})
	return g.closeErr
}

// Draining reports whether the gateway has stopped admitting new work.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Recovering reports whether any registered dataset is currently replaying
// durable state (WAL recovery). The cluster tier reads it to hold routed
// traffic away from a freshly restarted replica until its data is complete.
func (g *Gateway) Recovering() bool {
	for _, name := range g.reg.Names() {
		if st, _ := g.status(name); st == workload.StatusRecovering {
			return true
		}
	}
	return false
}

// rejectDraining writes the shutdown rejection for one gateway request.
func (g *Gateway) rejectDraining(w http.ResponseWriter) {
	g.gwMetrics.drainRejected.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "gateway is draining", http.StatusServiceUnavailable)
}

// Handler returns the gateway's HTTP surface:
//
//	POST /viz?dataset=<name>   — visualization requests (shared admission).
//	                             Omitting dataset uses the default dataset.
//	POST /ingest?dataset=<n>   — append rows through the dataset's adaptive
//	                             write batcher
//	GET  /datasets             — every registered dataset and its status
//	GET  /healthz[?dataset=]   — gateway rollup, or one dataset's probe
//	GET  /metrics[?dataset=]   — Prometheus text with dataset labels, or
//	                             ?format=json for a structured snapshot
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /viz", recoverPanics(g.gwMetrics, "viz", g.serveViz))
	mux.HandleFunc("POST /ingest", recoverPanics(g.gwMetrics, "ingest", g.serveIngest))
	mux.HandleFunc("GET /datasets", recoverPanics(g.gwMetrics, "datasets", g.serveDatasets))
	mux.HandleFunc("GET /healthz", recoverPanics(g.gwMetrics, "healthz", g.serveHealthz))
	mux.HandleFunc("GET /metrics", recoverPanics(g.gwMetrics, "metrics", g.serveMetrics))
	return mux
}

// resolve maps a request's dataset parameter to a ready Server, writing the
// proper error response (404 unknown, 503 warming, 500 failed build) when it
// can't. The bool reports whether a Server was produced.
func (g *Gateway) resolve(w http.ResponseWriter, r *http.Request) (*Server, bool) {
	name := r.URL.Query().Get("dataset")
	if name == "" {
		name = g.defaultName
	}
	e := g.ensure(name)
	if e == nil {
		g.notFound.Add(1)
		http.Error(w, fmt.Sprintf("unknown dataset %q", name), http.StatusNotFound)
		return nil, false
	}
	switch e.state() {
	case workload.StatusWarming:
		g.notReady.Add(1)
		w.Header().Set("Retry-After", "2")
		http.Error(w, fmt.Sprintf("dataset %q is warming up", name), http.StatusServiceUnavailable)
		return nil, false
	case workload.StatusFailed:
		g.failedDeps.Add(1)
		http.Error(w, e.err.Error(), http.StatusInternalServerError)
		return nil, false
	}
	return e.srv, true
}

// serveViz routes one visualization request to its dataset's server. The
// Server path (decode, admission on the shared pool, handle, encode) is
// reused unchanged — that is what makes gateway responses byte-identical to
// standalone single-dataset responses. Requests carrying a session id are
// additionally observed by the session tracker after a successful serve, and
// the tracker's predictions are dispatched as speculative prefetches.
func (g *Gateway) serveViz(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if g.draining.Load() {
		g.rejectDraining(w)
		return
	}
	srv, ok := g.resolve(w, r)
	if !ok {
		return
	}
	sid := ""
	if g.sessions != nil {
		sid = SessionID(r)
	}
	if sid == "" {
		srv.serveViz(w, r)
		return
	}
	// Buffer the body so the session tracker can interpret the request with
	// the same normalization the server used to answer it. An oversized body
	// is rejected here exactly as Server.serveViz rejects it without a
	// session id (a truncating read would instead surface later as a
	// confusing JSON error).
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxVizBody))
	if err != nil {
		srv.metrics.requests.Add(1)
		srv.metrics.clientErr.Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	srv.serveViz(rec, r)
	if rec.code >= 300 {
		return // rejected/failed requests don't advance the viewport
	}
	// Hand the observation to the observer goroutine and return immediately:
	// the client's perceived latency must not include prediction bookkeeping.
	select {
	case g.observeCh <- observation{srv: srv, sid: sid, body: body}:
	default: // observer saturated — drop the prediction round, not latency
	}
}

// statusRecorder captures the response status so session observation can
// skip failed serves.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// serveIngest routes one ingest request to its dataset's server write path.
func (g *Gateway) serveIngest(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	if g.draining.Load() {
		g.rejectDraining(w)
		return
	}
	srv, ok := g.resolve(w, r)
	if !ok {
		return
	}
	srv.serveIngest(w, r)
}

// datasetInfo is one /datasets row.
type datasetInfo struct {
	Name    string `json:"name"`
	Status  string `json:"status"`
	Default bool   `json:"default,omitempty"`
	Error   string `json:"error,omitempty"`
}

// status reports a dataset's gateway-level state: idle until first touch,
// then the entry's lifecycle. A warming entry whose registry build is
// replaying a write-ahead log reports recovering, so health consumers can
// distinguish crash recovery from a cold build.
func (g *Gateway) status(name string) (workload.Status, error) {
	g.mu.RLock()
	e, ok := g.entries[name]
	g.mu.RUnlock()
	if !ok {
		switch g.reg.Status(name) {
		case workload.StatusUnknown:
			return workload.StatusUnknown, nil
		case workload.StatusRecovering:
			// The registry build was started directly (embedders, server
			// boot) and is replaying a WAL; no gateway entry exists yet but
			// the dataset is very much not idle.
			return workload.StatusRecovering, nil
		}
		return workload.StatusIdle, nil
	}
	st := e.state()
	switch st {
	case workload.StatusFailed:
		return st, e.err
	case workload.StatusWarming:
		if g.reg.Status(name) == workload.StatusRecovering {
			return workload.StatusRecovering, nil
		}
	}
	return st, nil
}

func (g *Gateway) serveDatasets(w http.ResponseWriter, r *http.Request) {
	names := g.reg.Names()
	infos := make([]datasetInfo, 0, len(names))
	for _, name := range names {
		st, err := g.status(name)
		info := datasetInfo{Name: name, Status: st.String(), Default: name == g.defaultName}
		if err != nil {
			info.Error = err.Error()
		}
		infos = append(infos, info)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(infos)
}

func (g *Gateway) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("dataset"); name != "" {
		st, _ := g.status(name)
		w.Header().Set("Content-Type", "application/json")
		code := http.StatusOK
		switch st {
		case workload.StatusUnknown:
			code = http.StatusNotFound
		case workload.StatusReady:
		default:
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{"dataset": name, "status": st.String()})
		return
	}
	statuses := make(map[string]string)
	recovering := false
	for _, name := range g.reg.Names() {
		st, _ := g.status(name)
		statuses[name] = st.String()
		if st == workload.StatusRecovering {
			recovering = true
		}
	}
	// Rollup precedence: draining (shutdown in progress) > recovering (WAL
	// replay; traffic must stay away until state is complete) > ok. Both
	// non-ok states answer 503 so plain status-code health checks fail over.
	status, code := "ok", http.StatusOK
	switch {
	case g.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case recovering:
		status, code = "recovering", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":     status,
		"uptime_sec": time.Since(g.start).Seconds(),
		"datasets":   statuses,
	})
}

// GatewaySnapshot is the gateway-level slice of /metrics?format=json.
type GatewaySnapshot struct {
	UptimeSec      float64           `json:"uptime_sec"`
	Requests       int64             `json:"requests"`
	UnknownDataset int64             `json:"unknown_dataset"`
	Warming        int64             `json:"warming_rejections"`
	FailedDataset  int64             `json:"failed_dataset"`
	QueueDepthLive int               `json:"queue_depth_live"`
	Datasets       map[string]string `json:"datasets"`
	Draining       bool              `json:"draining,omitempty"`
	DrainRejected  int64             `json:"drain_rejected,omitempty"`
	Panics         map[string]int64  `json:"panics,omitempty"`
}

// GatewayMetricsSnapshot is the full JSON form of GET /metrics?format=json:
// the gateway counters plus one serving snapshot per ready dataset.
type GatewayMetricsSnapshot struct {
	Gateway  GatewaySnapshot            `json:"gateway"`
	Datasets map[string]MetricsSnapshot `json:"datasets"`
}

// Snapshot captures the gateway counters and every ready dataset's serving
// metrics.
func (g *Gateway) Snapshot() GatewayMetricsSnapshot {
	snap := GatewayMetricsSnapshot{
		Gateway: GatewaySnapshot{
			UptimeSec:      time.Since(g.start).Seconds(),
			Requests:       g.requests.Load(),
			UnknownDataset: g.notFound.Load(),
			Warming:        g.notReady.Load(),
			FailedDataset:  g.failedDeps.Load(),
			QueueDepthLive: g.admit.queueLen(),
			Datasets:       make(map[string]string),
			Draining:       g.draining.Load(),
			DrainRejected:  g.gwMetrics.drainRejected.Load(),
			Panics:         g.gwMetrics.panicsSnapshot(),
		},
		Datasets: make(map[string]MetricsSnapshot),
	}
	for _, name := range g.reg.Names() {
		st, _ := g.status(name)
		snap.Gateway.Datasets[name] = st.String()
		if st == workload.StatusReady {
			if srv, err := g.Server(name); err == nil {
				snap.Datasets[name] = srv.Metrics().Snapshot()
			}
		}
	}
	return snap
}

func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("dataset"); name != "" {
		st, _ := g.status(name)
		if st != workload.StatusReady {
			http.Error(w, fmt.Sprintf("dataset %q is %s", name, st), http.StatusNotFound)
			return
		}
		srv, err := g.Server(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(srv.Metrics().Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		srv.Metrics().WritePrometheusLabeled(w, fmt.Sprintf("dataset=%q", name))
		return
	}

	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(g.Snapshot())
		return
	}
	// Text rollup: gateway counters, then each ready dataset's series —
	// snapshotted exactly once, inside WritePrometheusLabeled.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "maliva_gateway_uptime_seconds %g\n", time.Since(g.start).Seconds())
	fmt.Fprintf(w, "maliva_gateway_requests_total %d\n", g.requests.Load())
	fmt.Fprintf(w, "maliva_gateway_unknown_dataset_total %d\n", g.notFound.Load())
	fmt.Fprintf(w, "maliva_gateway_warming_rejections_total %d\n", g.notReady.Load())
	fmt.Fprintf(w, "maliva_gateway_failed_dataset_total %d\n", g.failedDeps.Load())
	fmt.Fprintf(w, "maliva_gateway_drain_rejected_total %d\n", g.gwMetrics.drainRejected.Load())
	gwPanics := g.gwMetrics.panicsSnapshot()
	gwHandlers := make([]string, 0, len(gwPanics))
	for h := range gwPanics {
		gwHandlers = append(gwHandlers, h)
	}
	sort.Strings(gwHandlers)
	for _, h := range gwHandlers {
		fmt.Fprintf(w, "maliva_gateway_panics_total{handler=%q} %d\n", h, gwPanics[h])
	}
	writeQueueDepth(w, g.admit.queueLen())
	names := g.reg.Names()
	sort.Strings(names)
	for _, name := range names {
		if st, _ := g.status(name); st != workload.StatusReady {
			continue
		}
		if srv, err := g.Server(name); err == nil {
			srv.Metrics().WritePrometheusLabeled(w, fmt.Sprintf("dataset=%q", name))
		}
	}
}
