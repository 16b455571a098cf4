package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
)

// wireRequest mirrors the /viz JSON wire format (middleware's httpRequest)
// for fallback routing only: the shape hash below never interprets the
// request beyond the fields that determine its result-cache key. The
// original body bytes — not a re-encoding — are what gets forwarded.
type wireRequest struct {
	Keyword  string  `json:"keyword"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	MinLon   float64 `json:"min_lon"`
	MinLat   float64 `json:"min_lat"`
	MaxLon   float64 `json:"max_lon"`
	MaxLat   float64 `json:"max_lat"`
	Kind     string  `json:"kind"`
	GridW    int     `json:"grid_w"`
	GridH    int     `json:"grid_h"`
	BudgetMs float64 `json:"budget_ms"`
}

// routingKey hashes one /viz request's SHAPE to a ring position. It is the
// fallback key: primary routing hashes the server-normalized ResultKey
// (see Router.routeHash), the same space peer-cache ownership uses, so the
// routed replica owns its key. The shape hash covers the request fields
// that determine the result key — dataset, predicates, kind, grid, budget
// — normalized the way the server normalizes them, and handles the cases
// the unified path can't: unparseable bodies (hashed raw), requests the
// server would reject, and datasets still warming. Fallback-routed
// requests may land on a non-owner; the peer protocol still converges
// them.
func routingKey(dataset string, body []byte) uint64 {
	h := hash64(dataset)
	var wr wireRequest
	if err := json.Unmarshal(body, &wr); err != nil {
		return mix64(h, hash64(string(body)))
	}
	h = mix64(h, hash64(wr.Keyword))
	h = mix64(h, timeHash(wr.From))
	h = mix64(h, timeHash(wr.To))
	region := engine.Rect{MinLon: wr.MinLon, MinLat: wr.MinLat, MaxLon: wr.MaxLon, MaxLat: wr.MaxLat}
	if region.Area() <= 0 {
		region = engine.Rect{} // the server substitutes the dataset extent
	}
	h = mix64(h, math.Float64bits(region.MinLon))
	h = mix64(h, math.Float64bits(region.MinLat))
	h = mix64(h, math.Float64bits(region.MaxLon))
	h = mix64(h, math.Float64bits(region.MaxLat))
	kind := wr.Kind
	if kind != string(middleware.VizScatter) {
		kind = string(middleware.VizHeatmap)
	}
	h = mix64(h, hash64(kind))
	gw, gh := wr.GridW, wr.GridH
	if gw <= 0 {
		gw = 64
	}
	if gh <= 0 {
		gh = 64
	}
	// Mask both grid fields to 32 bits (mirroring ResultKey.Hash) so their
	// bit ranges cannot overlap.
	h = mix64(h, uint64(uint32(gw))<<32|uint64(uint32(gh)))
	budget := wr.BudgetMs
	if budget <= 0 {
		budget = 0 // any non-positive budget resolves to the server default
	}
	h = mix64(h, math.Float64bits(budget))
	return h
}

// timeHash hashes an RFC 3339 timestamp by its instant (the server keys on
// UnixMilli, so "+00:00" and "Z" spellings must agree); unparseable strings
// hash raw, which still routes identical bodies identically.
func timeHash(s string) uint64 {
	if s == "" {
		return hash64("")
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return uint64(t.UnixMilli())
	}
	return hash64(s)
}

// Router is the replica-aware routing tier: it fronts N replicas and sends
// each /viz request to the replica owning its result key on the consistent
// hash ring, so cache hits concentrate on one replica per key instead of
// fragmenting N ways. Replica membership is governed by a HealthPool
// (active probes plus passive sentinel demotion); a non-live owner fails
// over to the next live replica in the key's ring sequence, and when the
// health view turns out stale the router retries every remaining replica
// before giving up — a request is lost only when no replica at all can
// serve it (clean 503 with Retry-After).
type Router struct {
	ring   *Ring
	nodes  []*Node
	health *HealthPool
	start  time.Time

	routed        []atomic.Int64 // per replica: requests committed there
	failovers     []atomic.Int64 // per replica: requests absorbed for a non-live owner
	retries       atomic.Int64   // attempts bounced off a refusal sentinel
	allDown       atomic.Int64
	keyedUnified  atomic.Int64 // requests routed by server-normalized ResultKey
	keyedFallback atomic.Int64 // requests routed by the shape hash

	// Session tracking + speculative prefetch (router-scope: key routing
	// fragments one session across replicas, so only the router sees the
	// whole pan/zoom trajectory). See session.go.
	sessions           *middleware.SessionTracker
	prefetchSem        chan struct{}
	observeCh          chan routerObservation
	prefetchDispatched atomic.Int64 // predictions sent to an owner replica
	prefetchDropped    atomic.Int64 // predictions shed before dispatch (no token)
}

// NewRouter builds a router over the ring's replicas with default health
// probing (in-process NodeProbe). len(nodes) must match the ring.
func NewRouter(ring *Ring, nodes []*Node) (*Router, error) {
	return NewRouterWithHealth(ring, nodes, HealthConfig{})
}

// NewRouterWithHealth is NewRouter with explicit health-probe tuning. The
// pool's probers start immediately; Close stops them.
func NewRouterWithHealth(ring *Ring, nodes []*Node, hcfg HealthConfig) (*Router, error) {
	if len(nodes) != ring.Replicas() {
		return nil, fmt.Errorf("cluster: router has %d nodes for a ring of %d", len(nodes), ring.Replicas())
	}
	rt := &Router{
		ring:      ring,
		nodes:     nodes,
		health:    NewHealthPool(len(nodes), NodeProbe(nodes), hcfg),
		start:     time.Now(),
		routed:    make([]atomic.Int64, len(nodes)),
		failovers: make([]atomic.Int64, len(nodes)),
	}
	rt.health.Start()
	return rt, nil
}

// Health returns the router's health pool (lifecycle reports, snapshots).
func (rt *Router) Health() *HealthPool { return rt.health }

// Close stops the health probers. The router keeps serving on its last
// known (plus passively updated) health view.
func (rt *Router) Close() { rt.health.Stop() }

// Handler returns the router's HTTP surface:
//
//	POST /viz                — routed by result-key hash, with failover
//	POST /ingest             — routed by dataset name (one writer per
//	                           dataset), with failover
//	GET  /datasets           — forwarded to the first live replica
//	GET  /healthz            — cluster rollup; ?replica=i forwards
//	GET  /metrics            — cluster text with replica="i" labels;
//	                           ?format=json → Snapshot; ?replica=i forwards
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /viz", rt.serveViz)
	mux.HandleFunc("POST /ingest", rt.serveIngest)
	mux.HandleFunc("GET /datasets", rt.forwardAnyLive)
	mux.HandleFunc("GET /healthz", rt.serveHealthz)
	mux.HandleFunc("GET /metrics", rt.serveMetrics)
	return mux
}

// routeHash maps one /viz request to its ring position. The primary path
// is the UNIFIED key space: parse the body exactly as the serving replica
// will, resolve it through a ready server's plan/rewrite path to the
// ResultKey, and hash that — the same hash peer-cache ownership uses, so
// the routed replica owns its key and a cold request never pays a futile
// peer fetch (nor stores the result twice). The key is computed on the
// first replica in the shape hash's ring sequence with a ready server
// ("keyer" replica), which both spreads cold plan builds across the
// cluster and keeps the choice deterministic. Anything the unified path
// can't key — unparseable body, dataset not warm anywhere, a request the
// server rejects — falls back to the shape hash, which routes equal
// bodies equally (enough for deterministic error handling and cold
// starts). unified reports which space was used.
func (rt *Router) routeHash(dataset string, body []byte) (key uint64, unified bool) {
	shape := routingKey(dataset, body)
	req, err := middleware.ParseRequest(body)
	if err != nil {
		return shape, false
	}
	for _, idx := range rt.ring.Sequence(shape) {
		srv, ok := rt.nodes[idx].Gateway().ReadyServer(dataset)
		if !ok {
			continue
		}
		rkey, err := srv.ResultKeyFor(req)
		if err != nil {
			return shape, false
		}
		return rkey.Hash(), true
	}
	return shape, false
}

// failoverWriter buffers a replica's response decision so the router can
// retry on a refusal sentinel. Headers go into a private map — nothing
// touches the real ResponseWriter until the first WriteHeader proves the
// response is not a sentinel refusal; then headers are copied over and the
// body streams through. Sentinel responses are swallowed entirely.
type failoverWriter struct {
	dst         http.ResponseWriter
	hdr         http.Header
	decided     bool
	committed   bool
	code        int    // status code of the committed response
	unavailable string // sentinel value when the replica refused
}

func (f *failoverWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = make(http.Header)
	}
	return f.hdr
}

func (f *failoverWriter) WriteHeader(code int) {
	if f.decided {
		return
	}
	f.decided = true
	if v := f.Header().Get(ReplicaUnavailableHeader); v != "" && code == http.StatusServiceUnavailable {
		f.unavailable = v
		return
	}
	dst := f.dst.Header()
	for k, vv := range f.hdr {
		dst[k] = vv
	}
	f.committed = true
	f.code = code
	f.dst.WriteHeader(code)
}

func (f *failoverWriter) Write(b []byte) (int, error) {
	if !f.decided {
		f.WriteHeader(http.StatusOK)
	}
	if !f.committed {
		return len(b), nil // swallow the sentinel body
	}
	return f.dst.Write(b)
}

// attemptOrder returns the replicas to try for a key: the key's ring
// sequence restricted to live replicas first (the first entry is the
// effective owner — Ring.OwnerAmong over the live set), then the non-live
// remainder. The second tier protects against a stale health view: a
// replica the pool believes down may be back already, and trying it beats
// returning an avoidable 503. Its own sentinel keeps a really-down
// replica harmless.
func (rt *Router) attemptOrder(key uint64) []int {
	seq := rt.ring.Sequence(key)
	order := make([]int, 0, len(seq))
	skipped := make([]int, 0, len(seq))
	for _, idx := range seq {
		if rt.health.Routable(idx) {
			order = append(order, idx)
		} else {
			skipped = append(skipped, idx)
		}
	}
	return append(order, skipped...)
}

// serveViz routes one visualization request to its owner replica.
func (rt *Router) serveViz(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, middleware.MaxVizBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	dataset := r.URL.Query().Get("dataset")
	key, unified := rt.routeHash(dataset, body)
	if unified {
		rt.keyedUnified.Add(1)
	} else {
		rt.keyedFallback.Add(1)
	}
	for attempt, idx := range rt.attemptOrder(key) {
		n := rt.nodes[idx]
		fw := &failoverWriter{dst: w}
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		n.ServeHTTP(fw, r2)
		if fw.unavailable != "" {
			// The replica refused with its lifecycle sentinel: demote it
			// and fail the request over. Gateway 503s (admission, dataset
			// warming) do NOT carry the sentinel and are final — every
			// replica would shed the same way.
			rt.retries.Add(1)
			switch fw.unavailable {
			case "draining":
				rt.health.ReportDraining(idx)
			case "recovering":
				rt.health.ReportRecovering(idx)
			default:
				rt.health.ReportFailure(idx)
			}
			continue
		}
		rt.routed[idx].Add(1)
		if attempt > 0 {
			rt.failovers[idx].Add(1)
		}
		if !rt.health.Routable(idx) {
			// A replica the pool held out just served real traffic:
			// credit it toward rejoining.
			rt.health.ReportSuccess(idx)
		}
		if fw.code < 300 {
			rt.observeSession(r, dataset, body)
		}
		return
	}
	rt.allDown.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(rt.health.RetryAfterSeconds()))
	http.Error(w, "no live replica", http.StatusServiceUnavailable)
}

// serveIngest routes one write batch. All ingest for a dataset is keyed by
// the dataset NAME (not the request body), so a single replica's adaptive
// batcher sees the full write stream — split across replicas, each batcher
// would observe a fraction of the arrival rate and mis-tune its flush
// delay. An in-process cluster (New) shares the built datasets, so a flush
// applied through any replica's ingestor bumps the one true data version
// every replica serves from; failover to the next live replica is therefore
// safe (at worst it fragments one batch).
func (rt *Router) serveIngest(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, middleware.MaxIngestBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	key := hash64(r.URL.Query().Get("dataset"))
	for _, idx := range rt.attemptOrder(key) {
		fw := &failoverWriter{dst: w}
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		rt.nodes[idx].ServeHTTP(fw, r2)
		if fw.unavailable != "" {
			rt.retries.Add(1)
			switch fw.unavailable {
			case "draining":
				rt.health.ReportDraining(idx)
			case "recovering":
				rt.health.ReportRecovering(idx)
			default:
				rt.health.ReportFailure(idx)
			}
			continue
		}
		rt.routed[idx].Add(1)
		return
	}
	rt.allDown.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(rt.health.RetryAfterSeconds()))
	http.Error(w, "no live replica", http.StatusServiceUnavailable)
}

// forwardAnyLive forwards a read-only request to the first replica that
// accepts it (every replica answers registry-level endpoints identically).
func (rt *Router) forwardAnyLive(w http.ResponseWriter, r *http.Request) {
	for _, idx := range rt.attemptOrder(0) {
		fw := &failoverWriter{dst: w}
		rt.nodes[idx].ServeHTTP(fw, r)
		if fw.unavailable == "" {
			return
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(rt.health.RetryAfterSeconds()))
	http.Error(w, "no live replica", http.StatusServiceUnavailable)
}

// replicaParam resolves an optional ?replica=i forward target.
func (rt *Router) replicaParam(w http.ResponseWriter, r *http.Request) (*Node, bool, bool) {
	s := r.URL.Query().Get("replica")
	if s == "" {
		return nil, false, true
	}
	i, err := strconv.Atoi(s)
	if err != nil || i < 0 || i >= len(rt.nodes) {
		http.Error(w, fmt.Sprintf("unknown replica %q", s), http.StatusNotFound)
		return nil, true, false
	}
	return rt.nodes[i], true, true
}

func (rt *Router) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if n, set, ok := rt.replicaParam(w, r); !ok {
		return
	} else if set {
		n.ServeHTTP(w, r)
		return
	}
	reps := rt.health.SnapshotAll()
	out := struct {
		Status    string                  `json:"status"`
		UptimeSec float64                 `json:"uptime_sec"`
		Replicas  []ReplicaHealthSnapshot `json:"replicas"`
	}{Status: "ok", UptimeSec: time.Since(rt.start).Seconds(), Replicas: reps}
	live := 0
	for _, h := range reps {
		if h.State == StateLive.String() {
			live++
		}
	}
	code := http.StatusOK
	if live == 0 {
		out.Status = "down"
		code = http.StatusServiceUnavailable
	} else if live < len(rt.nodes) {
		out.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(out)
}

// ReplicaSnapshot is one replica's slice of the cluster snapshot.
type ReplicaSnapshot struct {
	Replica   int                               `json:"replica"`
	State     string                            `json:"state"`
	Alive     bool                              `json:"alive"`
	Routed    int64                             `json:"routed"`
	Failovers int64                             `json:"failovers_absorbed"`
	Cache     CacheSnapshot                     `json:"cache"`
	Gateway   middleware.GatewayMetricsSnapshot `json:"gateway"`
}

// Snapshot is the JSON form of GET /metrics?format=json on the router: the
// routing counters, each replica's peer-cache and gateway metrics, and the
// cluster-wide result-cache hit rate (peer hits count as hits — they skip
// execution exactly like local ones).
type Snapshot struct {
	UptimeSec     float64           `json:"uptime_sec"`
	Replicas      []ReplicaSnapshot `json:"replicas"`
	Routed        int64             `json:"routed"`
	KeyedUnified  int64             `json:"routed_by_result_key"`
	KeyedFallback int64             `json:"routed_by_shape_hash"`
	Retries       int64             `json:"routing_retries"`
	NoLiveReplica int64             `json:"no_live_replica"`
	// Session-prefetch dispatch counters (router-scope; the per-replica
	// prefetch admission/hit counters live in each gateway snapshot).
	PrefetchDispatched int64   `json:"session_prefetch_dispatched"`
	PrefetchDropped    int64   `json:"session_prefetch_dropped"`
	ResultHits         int64   `json:"result_cache_hits"`
	ResultMisses       int64   `json:"result_cache_misses"`
	ResultHitRate      float64 `json:"result_cache_hit_rate"`
}

// Snapshot captures the cluster counters.
func (rt *Router) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeSec:     time.Since(rt.start).Seconds(),
		KeyedUnified:  rt.keyedUnified.Load(),
		KeyedFallback: rt.keyedFallback.Load(),
		Retries:       rt.retries.Load(),
		NoLiveReplica: rt.allDown.Load(),

		PrefetchDispatched: rt.prefetchDispatched.Load(),
		PrefetchDropped:    rt.prefetchDropped.Load(),
	}
	for i, n := range rt.nodes {
		st := rt.health.State(i)
		rs := ReplicaSnapshot{
			Replica:   i,
			State:     st.String(),
			Alive:     st == StateLive,
			Routed:    rt.routed[i].Load(),
			Failovers: rt.failovers[i].Load(),
			Cache:     n.CacheSnapshot(),
			Gateway:   n.Gateway().Snapshot(),
		}
		snap.Routed += rs.Routed
		for _, m := range rs.Gateway.Datasets {
			snap.ResultHits += m.ResultHits
			snap.ResultMisses += m.ResultMisses
		}
		snap.Replicas = append(snap.Replicas, rs)
	}
	if total := snap.ResultHits + snap.ResultMisses; total > 0 {
		snap.ResultHitRate = float64(snap.ResultHits) / float64(total)
	}
	return snap
}

func (rt *Router) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if n, set, ok := rt.replicaParam(w, r); !ok {
		return
	} else if set {
		n.ServeHTTP(w, r)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(rt.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.WritePrometheus(w)
}

// WritePrometheus renders the cluster counters in Prometheus text format:
// router and peer-cache series carry a replica="i" label, and every
// replica's per-dataset gateway series carry replica="i",dataset="name".
func (rt *Router) WritePrometheus(w io.Writer) {
	snap := rt.Snapshot()
	fmt.Fprintf(w, "maliva_cluster_uptime_seconds %g\n", snap.UptimeSec)
	fmt.Fprintf(w, "maliva_cluster_replicas %d\n", len(rt.nodes))
	fmt.Fprintf(w, "maliva_cluster_routed_by_result_key_total %d\n", snap.KeyedUnified)
	fmt.Fprintf(w, "maliva_cluster_routed_by_shape_hash_total %d\n", snap.KeyedFallback)
	fmt.Fprintf(w, "maliva_cluster_routing_retries_total %d\n", snap.Retries)
	fmt.Fprintf(w, "maliva_cluster_no_live_replica_total %d\n", snap.NoLiveReplica)
	fmt.Fprintf(w, "maliva_cluster_session_prefetch_dispatched_total %d\n", snap.PrefetchDispatched)
	fmt.Fprintf(w, "maliva_cluster_session_prefetch_dropped_total %d\n", snap.PrefetchDropped)
	fmt.Fprintf(w, "maliva_cluster_result_cache_hit_rate %g\n", snap.ResultHitRate)
	for _, rs := range snap.Replicas {
		l := fmt.Sprintf("replica=%q", strconv.Itoa(rs.Replica))
		alive := 0
		if rs.Alive {
			alive = 1
		}
		fmt.Fprintf(w, "maliva_cluster_replica_alive{%s} %d\n", l, alive)
		fmt.Fprintf(w, "maliva_cluster_replica_state{%s,state=%q} 1\n", l, rs.State)
		fmt.Fprintf(w, "maliva_cluster_routed_total{%s} %d\n", l, rs.Routed)
		fmt.Fprintf(w, "maliva_cluster_failovers_absorbed_total{%s} %d\n", l, rs.Failovers)
		c := rs.Cache
		fmt.Fprintf(w, "maliva_cluster_result_local_hits_total{%s} %d\n", l, c.LocalHits)
		fmt.Fprintf(w, "maliva_cluster_peer_hits_total{%s} %d\n", l, c.PeerHits)
		fmt.Fprintf(w, "maliva_cluster_peer_misses_total{%s} %d\n", l, c.PeerMisses)
		fmt.Fprintf(w, "maliva_cluster_peer_errors_total{%s} %d\n", l, c.PeerErrors)
		fmt.Fprintf(w, "maliva_cluster_peer_fetch_timeouts_total{%s} %d\n", l, c.FetchTimeouts)
		fmt.Fprintf(w, "maliva_cluster_peer_fetches_hedged_total{%s} %d\n", l, c.HedgedFetches)
		fmt.Fprintf(w, "maliva_cluster_peer_hedge_wins_total{%s} %d\n", l, c.HedgeWins)
		fmt.Fprintf(w, "maliva_cluster_peer_fetches_coalesced_total{%s} %d\n", l, c.FetchesCoalesced)
		fmt.Fprintf(w, "maliva_cluster_peer_fetches_served_total{%s} %d\n", l, c.FetchesServed)
		fmt.Fprintf(w, "maliva_cluster_fills_sent_total{%s} %d\n", l, c.FillsSent)
		fmt.Fprintf(w, "maliva_cluster_fills_received_total{%s} %d\n", l, c.FillsReceived)
		fmt.Fprintf(w, "maliva_cluster_fills_dropped_total{%s} %d\n", l, c.FillsDropped)
		fmt.Fprintf(w, "maliva_cluster_peer_fill_drops_total{%s} %d\n", l, c.FillsDropped)
		fmt.Fprintf(w, "maliva_cluster_peer_fetch_version_rejects_total{%s} %d\n", l, c.FetchVersionRejects)
		fmt.Fprintf(w, "maliva_cluster_fill_version_rejects_total{%s} %d\n", l, c.FillVersionRejects)
	}
	// Per-replica, per-dataset gateway series.
	for _, rs := range snap.Replicas {
		names := make([]string, 0, len(rs.Gateway.Gateway.Datasets))
		for name, st := range rs.Gateway.Gateway.Datasets {
			if st == "ready" {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			srv, err := rt.nodes[rs.Replica].Gateway().Server(name)
			if err != nil {
				continue
			}
			srv.Metrics().WritePrometheusLabeled(w,
				fmt.Sprintf("replica=%q,dataset=%q", strconv.Itoa(rs.Replica), name))
		}
	}
}
