package middleware

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// RewriterFactory builds the rewriter for one dataset. NewGateway calls it
// once per dataset, before it returns, so an expensive factory (training an
// MDP agent) never runs on a request goroutine. Each dataset gets its own
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
	// single-dataset clients working unchanged.
	DefaultDataset string
	// Space is the rewrite option space every dataset serves under.
	Space core.SpaceSpec
	// WrapResultCache, when set, wraps each dataset's result cache as its
	// Server is built (internal/cluster installs the peer-shared cache
	// here). It runs once per dataset, on a build worker, with the
	// dataset's registry name and its freshly-built local cache — and not
	// at all when the result cache is disabled (see
	// ServerConfig.WrapResultCache).
	WrapResultCache func(dataset string, local ResultCache) ResultCache
	// Sessions tunes session tracking and speculative tile prefetch.
	Sessions SessionConfig
}

// datasetReady is the status /datasets and /healthz report for every
// dataset: NewGateway has built them all before anything can ask.
const datasetReady = "ready"

// Gateway serves visualization traffic for every dataset in a registry
// through per-dataset Server instances that share one admission budget.
// NewGateway builds every dataset's engine state (the generated dataset,
// its rewriter, caches, and lookup cache) before it returns, so the
// dataset→Server map never changes afterwards and a request never waits on
// a build. A Gateway response is byte-identical to the response the
// equivalent standalone single-dataset Server would produce, because
// routing reuses the Server path unchanged.
type Gateway struct {
	names       []string           // registration order
	servers     map[string]*Server // fixed by NewGateway; read without locks
	defaultName string
	admit       *admission
	start       time.Time

	// Session tracking + speculative prefetch (nil without a result cache).
	// observeCh feeds a single observer goroutine: observation (track,
	// predict, hand each prediction to Server.Prefetch) runs entirely off
	// the request goroutine, so the serving path never waits behind
	// prediction bookkeeping. Enqueueing happens before the handler
	// returns, which keeps one session's observations in request order.
	sessions  *SessionTracker
	observeCh chan observation

	// Gateway-level counters; per-dataset serving counters live on each
	// Server's Metrics. gwMetrics backs the panic-recovery middleware for
	// requests that die before resolving to a dataset's Server.
	requests  atomic.Int64
	notFound  atomic.Int64
	gwMetrics *Metrics

	// Lifecycle: draining is one-way (no new work, health fails over);
	// quit stops the observer goroutine; Close is idempotent.
	draining  atomic.Bool
	quit      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewGateway builds a gateway over a registry and, before it returns, every
// registered dataset's serving state: the dataset, its rewriter and its
// Server. The builds fan out on a GOMAXPROCS-wide worker pool, so a
// many-dataset cold start overlaps dataset generation and rewriter training
// without oversubscribing the machine; the error of the first (lowest-index)
// failed build is returned and every Server already built is closed. The
// registry must have at least one dataset, and DefaultDataset (when set)
// must be registered.
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
	} else if _, ok := reg.Builder(def); !ok {
		return nil, fmt.Errorf("middleware: default dataset %q is not registered", def)
	}
	scfg := cfg.Server.normalized()
	admit := newAdmission(scfg.MaxConcurrent, scfg.MaxQueue)
	built := make([]*Server, len(names))
	if err := core.RunIndexed(len(names), 0, func(i int) error {
		srv, err := buildServer(reg, names[i], factory, cfg)
		if err != nil {
			return err
		}
		srv.admit = admit
		built[i] = srv
		return nil
	}); err != nil {
		for _, srv := range built {
			if srv != nil {
				_ = srv.Close() // the build error is the one to report
			}
		}
		return nil, err
	}
	g := &Gateway{
		names:       names,
		servers:     make(map[string]*Server, len(names)),
		defaultName: def,
		admit:       admit,
		start:       time.Now(),
		gwMetrics:   NewMetrics(),
		quit:        make(chan struct{}),
	}
	for i, name := range names {
		g.servers[name] = built[i]
	}
	if scfg.ResultCacheSize > 0 {
		g.sessions = NewSessionTracker(cfg.Sessions)
		g.observeCh = make(chan observation, observeQueueCap)
		go g.observeLoop()
	}
	return g, nil
}

// buildServer constructs one dataset's serving state: the dataset itself,
// its rewriter, and a Server whose caches are private. The caller hands it
// the gateway's shared admission pool.
func buildServer(reg *workload.Registry, name string, factory RewriterFactory, cfg GatewayConfig) (*Server, error) {
	build, _ := reg.Builder(name)
	ds, err := build()
	if err != nil {
		return nil, fmt.Errorf("middleware: dataset %q: %w", name, err)
	}
	rw, err := factory(name, ds)
	if err != nil {
		return nil, fmt.Errorf("middleware: rewriter for dataset %q: %w", name, err)
	}
	scfg := cfg.Server
	scfg.MaxConcurrent = -1 // admission is gateway-scoped, not per server
	if wrap := cfg.WrapResultCache; wrap != nil {
		scfg.WrapResultCache = func(local ResultCache) ResultCache {
			return wrap(name, local)
		}
	}
	srv, err := NewServerWithConfig(ds, rw, cfg.Space, scfg)
	if err != nil {
		return nil, fmt.Errorf("middleware: server for dataset %q: %w", name, err)
	}
	return srv, nil
}

// observation is one successfully-served viz request queued for session
// tracking: the request as the server decoded it, and where it came from.
type observation struct {
	srv *Server
	sid string
	req Request
}

// observeQueueCap bounds the observer backlog. A full queue drops the
// observation — the cost is one round of predictions, never live latency.
const observeQueueCap = 256

// observeLoop is the gateway's single observer goroutine: it advances the
// session tracker with each observed request and hands the predictions to
// Server.Prefetch. It runs until Close; a panic in one observation
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
				if obs.req.Region.Area() <= 0 {
					return
				}
				for _, pred := range g.sessions.Observe(obs.sid, obs.req, obs.srv.DS.Extent) {
					obs.srv.Prefetch(pred)
				}
			})
		}
	}
}

// DefaultDataset returns the name served when a request has no ?dataset.
func (g *Gateway) DefaultDataset() string { return g.defaultName }

// Warm returns nil: NewGateway has already built every dataset. It is kept
// only because the benchmark in bench/ still calls it.
func (g *Gateway) Warm() error { return nil }

// Server returns a dataset's Server; the empty name means the default
// dataset.
func (g *Gateway) Server(name string) (*Server, error) {
	if name == "" {
		name = g.defaultName
	}
	srv, ok := g.servers[name]
	if !ok {
		return nil, fmt.Errorf("middleware: gateway: unknown dataset %q", name)
	}
	return srv, nil
}

// Drain stops the gateway admitting new work: /viz and /ingest answer 503 +
// Retry-After, the health rollup and every per-dataset probe report
// "draining" (health-checked routing fails over), and every dataset Server
// drains too — which also stops its speculative prefetch. In-flight
// requests run to completion. One-way.
func (g *Gateway) Drain() {
	if !g.draining.CompareAndSwap(false, true) {
		return
	}
	for _, srv := range g.servers {
		srv.Drain()
	}
}

// Close drains the gateway, stops the observer goroutine, and closes every
// dataset Server — each one's ingest batcher flushes buffered rows, so
// acknowledged async writes are applied (and WAL-logged, when attached)
// before Close returns. Idempotent; later calls return the first error.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		g.Drain()
		close(g.quit)
		for _, name := range g.names {
			if err := g.servers[name].Close(); err != nil && g.closeErr == nil {
				g.closeErr = fmt.Errorf("middleware: closing dataset %q: %w", name, err)
			}
		}
	})
	return g.closeErr
}

// Draining reports whether the gateway has stopped admitting new work.
func (g *Gateway) Draining() bool { return g.draining.Load() }

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

// resolve maps a request's dataset parameter to its Server, answering 404
// for an unknown name. The bool reports whether a Server was produced.
func (g *Gateway) resolve(w http.ResponseWriter, r *http.Request) (*Server, bool) {
	name := r.URL.Query().Get("dataset")
	if name == "" {
		name = g.defaultName
	}
	srv, ok := g.servers[name]
	if !ok {
		g.notFound.Add(1)
		http.Error(w, fmt.Sprintf("unknown dataset %q", name), http.StatusNotFound)
	}
	return srv, ok
}

// serveViz routes one visualization request to its dataset's server. The
// Server path (decode, admission on the shared pool, handle, encode) is
// reused unchanged — that is what makes gateway responses byte-identical to
// standalone single-dataset responses. Requests carrying a session id are
// additionally observed by the session tracker after a successful serve, as
// the server decoded them, and the tracker's predictions are dispatched as
// speculative prefetches.
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
	req, ok := srv.serveViz(w, r)
	if !ok || g.sessions == nil {
		return // rejected/failed requests don't advance the viewport
	}
	sid := SessionID(r)
	if sid == "" {
		return
	}
	// Hand the observation to the observer goroutine and return immediately:
	// the client's perceived latency must not include prediction bookkeeping.
	select {
	case g.observeCh <- observation{srv: srv, sid: sid, req: req}:
	default: // observer saturated — drop the prediction round, not latency
	}
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
}

func (g *Gateway) serveDatasets(w http.ResponseWriter, r *http.Request) {
	infos := make([]datasetInfo, 0, len(g.names))
	for _, name := range g.names {
		infos = append(infos, datasetInfo{Name: name, Status: datasetReady, Default: name == g.defaultName})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(infos)
}

// serveHealthz answers the rollup, or with ?dataset= one dataset's probe.
// Both answer 503 "draining" once the gateway drains, so a load balancer
// probing either fails over; an unknown dataset's probe is a 404.
func (g *Gateway) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	draining := g.draining.Load()
	if name := r.URL.Query().Get("dataset"); name != "" {
		status, code := datasetReady, http.StatusOK
		switch {
		case g.servers[name] == nil:
			status, code = "unknown", http.StatusNotFound
		case draining:
			status, code = "draining", http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{"dataset": name, "status": status})
		return
	}
	statuses := make(map[string]string, len(g.names))
	for _, name := range g.names {
		statuses[name] = datasetReady
	}
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
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
	QueueDepthLive int               `json:"queue_depth_live"`
	Datasets       map[string]string `json:"datasets"`
	Draining       bool              `json:"draining,omitempty"`
	DrainRejected  int64             `json:"drain_rejected,omitempty"`
	Panics         map[string]int64  `json:"panics,omitempty"`
}

// GatewayMetricsSnapshot is the full JSON form of GET /metrics?format=json:
// the gateway counters plus one serving snapshot per dataset.
type GatewayMetricsSnapshot struct {
	Gateway  GatewaySnapshot            `json:"gateway"`
	Datasets map[string]MetricsSnapshot `json:"datasets"`
}

// Snapshot captures the gateway counters and every dataset's serving
// metrics.
func (g *Gateway) Snapshot() GatewayMetricsSnapshot {
	snap := GatewayMetricsSnapshot{
		Gateway: GatewaySnapshot{
			UptimeSec:      time.Since(g.start).Seconds(),
			Requests:       g.requests.Load(),
			UnknownDataset: g.notFound.Load(),
			QueueDepthLive: g.admit.queueLen(),
			Datasets:       make(map[string]string, len(g.names)),
			Draining:       g.draining.Load(),
			DrainRejected:  g.gwMetrics.drainRejected.Load(),
			Panics:         g.gwMetrics.panicsSnapshot(),
		},
		Datasets: make(map[string]MetricsSnapshot, len(g.names)),
	}
	for _, name := range g.names {
		snap.Gateway.Datasets[name] = datasetReady
		snap.Datasets[name] = g.servers[name].Metrics().Snapshot()
	}
	return snap
}

func (g *Gateway) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("dataset"); name != "" {
		srv, ok := g.servers[name]
		if !ok {
			http.Error(w, fmt.Sprintf("dataset %q is unknown", name), http.StatusNotFound)
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
	// Text rollup: gateway counters, then each dataset's series —
	// snapshotted exactly once, inside WritePrometheusLabeled.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "maliva_gateway_uptime_seconds %g\n", time.Since(g.start).Seconds())
	fmt.Fprintf(w, "maliva_gateway_requests_total %d\n", g.requests.Load())
	fmt.Fprintf(w, "maliva_gateway_unknown_dataset_total %d\n", g.notFound.Load())
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
	names := append([]string(nil), g.names...)
	sort.Strings(names)
	for _, name := range names {
		g.servers[name].Metrics().WritePrometheusLabeled(w, fmt.Sprintf("dataset=%q", name))
	}
}
