package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/middleware"
)

// Router is the replica-aware routing tier: it fronts N in-process replicas
// and sends each /viz request to the replica owning its result key on the
// consistent hash ring, so cache hits concentrate on one replica per key
// instead of fragmenting N ways. It keeps no copy of replica health: each
// request reads every node's own state, tries the live replicas of the
// key's ring sequence first, and fails over on a replica's refusal
// sentinel. A request is lost only when no replica at all can serve it
// (clean 503 with Retry-After).
type Router struct {
	ring  *Ring
	nodes []*Node
	start time.Time

	routed        []atomic.Int64 // per replica: requests committed there
	failovers     []atomic.Int64 // per replica: requests absorbed for a non-live owner
	retries       atomic.Int64   // attempts bounced off a refusal sentinel
	allDown       atomic.Int64
	keyedUnified  atomic.Int64 // requests routed by server-normalized ResultKey
	keyedFallback atomic.Int64 // requests routed by the body hash
}

// NewRouter builds a router over the ring's replicas. len(nodes) must match
// the ring.
func NewRouter(ring *Ring, nodes []*Node) (*Router, error) {
	if len(nodes) != ring.Replicas() {
		return nil, fmt.Errorf("cluster: router has %d nodes for a ring of %d", len(nodes), ring.Replicas())
	}
	return &Router{
		ring:      ring,
		nodes:     nodes,
		start:     time.Now(),
		routed:    make([]atomic.Int64, len(nodes)),
		failovers: make([]atomic.Int64, len(nodes)),
	}, nil
}

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
	mux.HandleFunc("GET /datasets", func(w http.ResponseWriter, r *http.Request) { rt.forward(w, r, nil, 0) })
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
// first replica with a ready server in the body hash's ring sequence, which
// spreads cold plan builds across the cluster and keeps the choice
// deterministic. A request the unified path can't key — unparseable body,
// unknown dataset, a request the server rejects — is routed by the body
// hash itself: equal bodies still route equally, and the peer
// cache converges the rest. unified reports which space was used.
func (rt *Router) routeHash(dataset string, body []byte) (key uint64, unified bool) {
	bodyHash := hash64(dataset + "\x00" + string(body))
	req, err := middleware.ParseRequest(body)
	if err != nil {
		return bodyHash, false
	}
	for _, idx := range rt.ring.Sequence(bodyHash) {
		srv, err := rt.nodes[idx].Gateway().Server(dataset)
		if err != nil {
			continue
		}
		rkey, err := srv.ResultKeyFor(req)
		if err != nil {
			return bodyHash, false
		}
		return rkey.Hash(), true
	}
	return bodyHash, false
}

// failoverWriter buffers a replica's response decision so the router can
// retry on a refusal sentinel. Headers go into a private map — nothing
// touches the real ResponseWriter until the first WriteHeader proves the
// response is not a sentinel refusal; then headers are copied over and the
// body streams through. Sentinel responses are swallowed entirely.
type failoverWriter struct {
	dst     http.ResponseWriter
	hdr     http.Header
	decided bool
	refused bool // the replica answered with its lifecycle sentinel
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
	if f.Header().Get(ReplicaUnavailableHeader) != "" && code == http.StatusServiceUnavailable {
		f.refused = true
		return
	}
	dst := f.dst.Header()
	for k, vv := range f.hdr {
		dst[k] = vv
	}
	f.dst.WriteHeader(code)
}

func (f *failoverWriter) Write(b []byte) (int, error) {
	if !f.decided {
		f.WriteHeader(http.StatusOK)
	}
	if f.refused {
		return len(b), nil // swallow the sentinel body
	}
	return f.dst.Write(b)
}

// attemptOrder returns the replicas to try for a key: its ring sequence
// with the replicas whose own state reads live first — the first entry is the effective owner, Ring.OwnerAmong over that
// set — then the rest. The second tier covers a state that changes between
// the read and the attempt: a replica read as down may be back by the time
// every live one has refused, and its own sentinel keeps a really-down
// replica harmless.
func (rt *Router) attemptOrder(key uint64) []int {
	seq := rt.ring.Sequence(key)
	order := make([]int, 0, len(seq))
	var rest []int
	for _, idx := range seq {
		if rt.nodes[idx].State() == StateLive {
			order = append(order, idx)
		} else {
			rest = append(rest, idx)
		}
	}
	return append(order, rest...)
}

// forward replays one request (with body) to the replicas in
// attemptOrder(key) until one answers without its refusal sentinel, and
// books the replica that served — as a failover when it is not the key's
// ring owner. Gateway 503s (admission shedding) carry no sentinel and are
// final: every replica would shed the same way. When every
// replica refuses, the client gets a 503 with the same Retry-After the
// gateway's own 503s carry.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, key uint64) {
	for _, idx := range rt.attemptOrder(key) {
		fw := &failoverWriter{dst: w}
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		rt.nodes[idx].ServeHTTP(fw, r2)
		if fw.refused {
			rt.retries.Add(1)
			continue
		}
		rt.routed[idx].Add(1)
		if idx != rt.ring.Owner(key) {
			rt.failovers[idx].Add(1)
		}
		return
	}
	rt.allDown.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "no live replica", http.StatusServiceUnavailable)
}

// readBody reads a request body under limit, answering 400 on failure.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// serveViz routes one visualization request to its owner replica.
func (rt *Router) serveViz(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, middleware.MaxVizBody)
	if !ok {
		return
	}
	key, unified := rt.routeHash(r.URL.Query().Get("dataset"), body)
	if unified {
		rt.keyedUnified.Add(1)
	} else {
		rt.keyedFallback.Add(1)
	}
	rt.forward(w, r, body, key)
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
	body, ok := readBody(w, r, middleware.MaxIngestBody)
	if !ok {
		return
	}
	rt.forward(w, r, body, hash64(r.URL.Query().Get("dataset")))
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

// serveHealthz rolls up every replica's state, read from the node itself:
// ok when all are live, degraded when some are, 503 down when none is.
func (rt *Router) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if n, set, ok := rt.replicaParam(w, r); !ok {
		return
	} else if set {
		n.ServeHTTP(w, r)
		return
	}
	type replicaHealth struct {
		Replica int    `json:"replica"`
		State   string `json:"state"`
	}
	out := struct {
		Status    string          `json:"status"`
		UptimeSec float64         `json:"uptime_sec"`
		Replicas  []replicaHealth `json:"replicas"`
	}{Status: "ok", UptimeSec: time.Since(rt.start).Seconds()}
	live := 0
	for i, n := range rt.nodes {
		st := n.State()
		out.Replicas = append(out.Replicas, replicaHealth{Replica: i, State: st.String()})
		if st == StateLive {
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
	KeyedFallback int64             `json:"routed_by_body_hash"`
	Retries       int64             `json:"routing_retries"`
	NoLiveReplica int64             `json:"no_live_replica"`
	ResultHits    int64             `json:"result_cache_hits"`
	ResultMisses  int64             `json:"result_cache_misses"`
	ResultHitRate float64           `json:"result_cache_hit_rate"`
}

// Snapshot captures the cluster counters.
func (rt *Router) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeSec:     time.Since(rt.start).Seconds(),
		KeyedUnified:  rt.keyedUnified.Load(),
		KeyedFallback: rt.keyedFallback.Load(),
		Retries:       rt.retries.Load(),
		NoLiveReplica: rt.allDown.Load(),
	}
	for i, n := range rt.nodes {
		st := n.State()
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
	fmt.Fprintf(w, "maliva_cluster_routed_by_body_hash_total %d\n", snap.KeyedFallback)
	fmt.Fprintf(w, "maliva_cluster_routing_retries_total %d\n", snap.Retries)
	fmt.Fprintf(w, "maliva_cluster_no_live_replica_total %d\n", snap.NoLiveReplica)
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
		for name := range rs.Gateway.Gateway.Datasets {
			names = append(names, name)
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
