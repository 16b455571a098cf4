package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// ReplicaUnavailableHeader marks a response produced by a replica refusing
// to serve (value "down", "draining", or "recovering") instead of by its
// gateway. The routing tier treats it as an authoritative failure sentinel
// and fails the request over to the next replica in the key's ring
// sequence — without ever confusing the refusal with a gateway-level 503
// (admission shedding), which must NOT fail over (every replica would shed
// the same overload).
const ReplicaUnavailableHeader = "X-Maliva-Replica-Unavailable"

// ReplicaState is one replica's lifecycle position, as reported on the
// router's /healthz and /metrics.
type ReplicaState int32

const (
	// StateLive replicas serve routed traffic.
	StateLive ReplicaState = iota
	// StateDraining replicas refuse new /viz and /ingest traffic but keep
	// answering peer fetches, health checks, and metrics
	// (operator-initiated).
	StateDraining
	// StateDown replicas answer nothing.
	StateDown
	// StateRecovering replicas are up but replaying their write-ahead log:
	// like draining, they refuse routed traffic until their data is
	// complete.
	StateRecovering
)

// String returns the lifecycle name used in /healthz and metrics labels.
func (s ReplicaState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	case StateRecovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// fillReq is one queued best-effort fill: a response this replica computed
// for a key another replica owns.
type fillReq struct {
	dataset string
	owner   int
	key     middleware.ResultKey
	resp    *middleware.Response
}

// fillQueueCap bounds the asynchronous fill queue. Fills are an
// optimization (they migrate results to their owning replica after a
// failover or direct hit); under backpressure dropping them is strictly
// safe — the owner just recomputes on its next cold request.
const fillQueueCap = 256

// Node is one cluster replica: a complete middleware.Gateway (its own
// servers, plan caches, lookup caches, admission pool) whose per-dataset
// result caches are wrapped with the peer-shared peerCache, plus the HTTP
// peer endpoints other replicas fetch from. Nodes are built two-phase:
// NewNode constructs the gateway, SetPeers wires the (by then fully
// constructed) peer set before any traffic flows.
type Node struct {
	id      int
	ring    *Ring
	gw      *middleware.Gateway
	handler http.Handler

	mu       sync.RWMutex
	peers    []PeerClient // index id is nil (self)
	caches   map[string]*peerCache
	secret   string
	hedge    HedgeConfig
	routable func(replica int) bool // which replicas own keys (nil = full ring)

	stats    cacheStats
	state    atomic.Int32 // ReplicaState
	inflight atomic.Int64
	fetchLat latencyWindow

	fills    chan fillReq
	stop     chan struct{}
	stopOnce sync.Once
}

// NewNode builds replica id of the ring over its own registry and gateway
// configuration. The gateway's WrapResultCache hook is taken by the node
// (that is where the peer cache lives); setting it in gcfg is an error.
// Dataset builders in reg may return shared *workload.Dataset values across
// nodes — datasets are immutable once built.
func NewNode(id int, ring *Ring, reg *workload.Registry, factory middleware.RewriterFactory, gcfg middleware.GatewayConfig) (*Node, error) {
	if id < 0 || id >= ring.Replicas() {
		return nil, fmt.Errorf("cluster: replica id %d outside ring of %d", id, ring.Replicas())
	}
	if gcfg.WrapResultCache != nil {
		return nil, fmt.Errorf("cluster: GatewayConfig.WrapResultCache is owned by the node")
	}
	n := &Node{
		id:     id,
		ring:   ring,
		caches: make(map[string]*peerCache),
		fills:  make(chan fillReq, fillQueueCap),
		stop:   make(chan struct{}),
	}
	gcfg.WrapResultCache = func(dataset string, local middleware.ResultCache) middleware.ResultCache {
		pc := &peerCache{dataset: dataset, node: n, local: local}
		n.mu.Lock()
		n.caches[dataset] = pc
		n.mu.Unlock()
		return pc
	}
	gw, err := middleware.NewGateway(reg, factory, gcfg)
	if err != nil {
		return nil, err
	}
	n.gw = gw

	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/fetch", n.serveFetch)
	mux.HandleFunc("POST /cluster/fill", n.serveFill)
	mux.Handle("/", gw.Handler())
	n.handler = mux

	go n.fillLoop()
	return n, nil
}

// SetPeers installs the replica's view of the other replicas. peers must be
// indexed by replica id (the self slot is ignored). Call once, before
// serving traffic.
func (n *Node) SetPeers(peers []PeerClient) {
	n.mu.Lock()
	n.peers = peers
	n.mu.Unlock()
}

// SetHealth installs the node's view of which replicas are currently
// routable. Peer-cache ownership then uses Ring.OwnerAmong over that set —
// the SAME restricted key space the router walks — so the replica a request
// is routed to is the replica its peer cache calls owner. Without a view
// (one-process-per-replica deployments, where a node cannot read its peers'
// state) the full-ring owner is used. Call before serving traffic.
func (n *Node) SetHealth(view func(replica int) bool) {
	n.mu.Lock()
	n.routable = view
	n.mu.Unlock()
}

// ownerFor resolves a key hash to its effective owning replica: the first
// routable replica clockwise (matching Router.attemptOrder's first choice),
// falling back to the unrestricted owner when no view is installed or
// nothing is routable.
func (n *Node) ownerFor(hash uint64) int {
	n.mu.RLock()
	view := n.routable
	n.mu.RUnlock()
	if view != nil {
		if rep, ok := n.ring.OwnerAmong(hash, view); ok {
			return rep
		}
	}
	return n.ring.Owner(hash)
}

// dataVersion returns the node's current data version for a dataset, or
// false while the dataset's server is not ready here.
func (n *Node) dataVersion(dataset string) (uint64, bool) {
	srv, ok := n.gw.ReadyServer(dataset)
	if !ok {
		return 0, false
	}
	return srv.DataVersion(), true
}

// SetPeerSecret requires every /cluster request to carry the shared secret
// in PeerSecretHeader (403 otherwise). One-process-per-replica deployments
// serve the peer endpoints on the public listener, where an open fill
// endpoint would let any client poison the result cache; in-process
// clusters never cross HTTP and don't need it. Empty disables the check.
// Call before serving traffic.
func (n *Node) SetPeerSecret(secret string) {
	n.mu.Lock()
	n.secret = secret
	n.mu.Unlock()
}

// authorizePeer enforces the shared secret on a /cluster request.
func (n *Node) authorizePeer(w http.ResponseWriter, r *http.Request) bool {
	n.mu.RLock()
	secret := n.secret
	n.mu.RUnlock()
	if secret != "" && r.Header.Get(PeerSecretHeader) != secret {
		http.Error(w, "bad peer secret", http.StatusForbidden)
		return false
	}
	return true
}

// peer returns the client for a replica, or nil for self/unwired.
func (n *Node) peer(id int) PeerClient {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if id == n.id || id < 0 || id >= len(n.peers) {
		return nil
	}
	return n.peers[id]
}

// ID returns the node's replica index on the ring.
func (n *Node) ID() int { return n.id }

// Gateway returns the node's gateway (metrics, Warm, in-process embedding).
func (n *Node) Gateway() *middleware.Gateway { return n.gw }

// Warm eagerly builds every dataset's serving state on this node.
func (n *Node) Warm(names ...string) error { return n.gw.Warm(names...) }

// State returns the replica's own lifecycle state: Live, Draining, or Down
// (WAL replay is reported separately, by Recovering).
func (n *Node) State() ReplicaState { return ReplicaState(n.state.Load()) }

// routingState is the state the routing tier reads: State, except that a
// live node still replaying its write-ahead log is StateRecovering. Only
// StateLive replicas are routed to (and own keys) first.
func (n *Node) routingState() ReplicaState {
	st := n.State()
	if st == StateLive && n.Recovering() {
		return StateRecovering
	}
	return st
}

// Down reports whether the replica is marked dead.
func (n *Node) Down() bool { return n.State() == StateDown }

// SetDown marks the replica dead (true) or alive (false). A dead in-process
// replica answers 503 on every route and errors on peer calls — the same
// view the cluster has of a crashed remote process. Tests and operational
// drills use it to exercise failover.
func (n *Node) SetDown(v bool) {
	if v {
		n.state.Store(int32(StateDown))
	} else {
		n.state.Store(int32(StateLive))
	}
}

// Drain takes the replica out of the routed set gracefully: new /viz and
// /ingest traffic is refused with the draining sentinel, while peer
// fetches, health checks, and metrics keep working — so the replica's
// cache remains readable by the cluster until the operator rejoins or
// retires it.
func (n *Node) Drain() { n.state.Store(int32(StateDraining)) }

// Rejoin returns a drained (or downed) replica to service; routed traffic
// comes back with the next request.
func (n *Node) Rejoin() { n.state.Store(int32(StateLive)) }

// Recovering reports whether the node's gateway is replaying durable state
// (WAL recovery after a restart). A recovering replica refuses routed
// traffic with the recovering sentinel but keeps answering health checks,
// peer fetches, and metrics.
func (n *Node) Recovering() bool { return n.gw.Recovering() }

// SetHedge configures hedged peer fetches (see HedgeConfig). Call before
// serving traffic.
func (n *Node) SetHedge(cfg HedgeConfig) {
	n.mu.Lock()
	n.hedge = cfg.normalized()
	n.mu.Unlock()
}

// hedgeConfig returns the node's hedging policy.
func (n *Node) hedgeConfig() HedgeConfig {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hedge
}

// Inflight reports how many requests the node is currently serving —
// drain observability (a drained replica is retirable once this is 0).
func (n *Node) Inflight() int64 { return n.inflight.Load() }

// Close stops the background fill worker. The node keeps serving; only
// cross-replica fill delivery stops.
func (n *Node) Close() { n.stopOnce.Do(func() { close(n.stop) }) }

// ServeHTTP serves the node's full surface: the gateway routes plus the
// /cluster peer endpoints, behind the lifecycle gate. A down replica
// refuses everything; a draining one refuses only new visualization
// traffic (peer fetches, health checks, and metrics stay up, so its cache
// remains useful and its state stays observable).
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch n.State() {
	case StateDown:
		w.Header().Set(ReplicaUnavailableHeader, "down")
		http.Error(w, fmt.Sprintf("replica %d is down", n.id), http.StatusServiceUnavailable)
		return
	case StateDraining:
		w.Header().Set(ReplicaUnavailableHeader, "draining")
		if r.URL.Path == "/viz" || r.URL.Path == "/ingest" {
			http.Error(w, fmt.Sprintf("replica %d is draining", n.id), http.StatusServiceUnavailable)
			return
		}
	default:
		if n.gw.Recovering() {
			w.Header().Set(ReplicaUnavailableHeader, "recovering")
			if r.URL.Path == "/viz" || r.URL.Path == "/ingest" {
				http.Error(w, fmt.Sprintf("replica %d is recovering", n.id), http.StatusServiceUnavailable)
				return
			}
		}
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	n.handler.ServeHTTP(w, r)
}

// Handler returns the node as an http.Handler (what a one-process-per-
// replica deployment listens on).
func (n *Node) Handler() http.Handler { return n }

// cacheFor returns the dataset's peer cache, or nil before its server has
// been built on this node.
func (n *Node) cacheFor(dataset string) *peerCache {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.caches[dataset]
}

// fetchLocal answers a peer's fetch from this node's LOCAL cache only —
// never recursing into the peer path, so fetch chains cannot form. A key
// minted at a data version other than this node's current one is refused
// outright: after an ingest flush, a peer with a lagging version view must
// not be handed a pre-flush answer (nor a post-flush answer for its
// pre-flush key — versions must match exactly).
func (n *Node) fetchLocal(dataset string, key middleware.ResultKey) (*middleware.Response, bool) {
	pc := n.cacheFor(dataset)
	if pc == nil {
		return nil, false
	}
	n.stats.fetchesServed.Add(1)
	if v, ok := n.dataVersion(dataset); ok && key.DataVersion != v {
		n.stats.fetchVersionRejects.Add(1)
		return nil, false
	}
	resp := pc.local.Get(key)
	return resp, resp != nil
}

// fillLocal accepts a peer's computed response into this node's local cache.
// Fills carrying a stale data version are dropped: the flush that bumped the
// version already invalidated that key space, and accepting the entry would
// only pin dead memory (version-keyed lookups can never address it again —
// but refusing keeps a lagging peer from churning this cache's LRU).
func (n *Node) fillLocal(dataset string, key middleware.ResultKey, resp *middleware.Response) {
	pc := n.cacheFor(dataset)
	if pc == nil || resp == nil {
		return
	}
	if v, ok := n.dataVersion(dataset); ok && key.DataVersion != v {
		n.stats.fillVersionRejects.Add(1)
		return
	}
	pc.local.Put(key, resp)
	n.stats.fillsReceived.Add(1)
}

// enqueueFill queues a best-effort fill toward the key's owner; drops when
// the queue is full (the request path never blocks on fill delivery).
func (n *Node) enqueueFill(f fillReq) {
	select {
	case n.fills <- f:
	default:
		n.stats.fillsDropped.Add(1)
	}
}

// fillLoop delivers queued fills to their owners in the background.
func (n *Node) fillLoop() {
	for {
		select {
		case <-n.stop:
			return
		case f := <-n.fills:
			n.deliverFill(f)
		}
	}
}

// deliverFill sends one queued fill to its owner. A panicking peer-client
// implementation is recovered and counted as a dropped fill instead of
// killing the worker goroutine (fills are best effort by contract).
func (n *Node) deliverFill(f fillReq) {
	defer func() {
		if r := recover(); r != nil {
			n.stats.fillsDropped.Add(1)
		}
	}()
	peer := n.peer(f.owner)
	if peer == nil {
		n.stats.fillsDropped.Add(1)
		return
	}
	if err := peer.FillResult(f.dataset, f.key, f.resp); err != nil {
		n.stats.fillsDropped.Add(1)
	} else {
		n.stats.fillsSent.Add(1)
	}
}

// serveFetch answers POST /cluster/fetch?dataset=<name>: body is a
// middleware.ResultKey; 200 + Response JSON on a local hit, 204 on a miss.
// The answer is the held response's stored bytes (Response.WriteJSON): a
// fetched result is asked for twice, once here and once where it was
// computed.
func (n *Node) serveFetch(w http.ResponseWriter, r *http.Request) {
	if !n.authorizePeer(w, r) {
		return
	}
	var key middleware.ResultKey
	r.Body = http.MaxBytesReader(w, r.Body, middleware.MaxVizBody)
	if err := json.NewDecoder(r.Body).Decode(&key); err != nil {
		http.Error(w, "bad fetch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp, ok := n.fetchLocal(r.URL.Query().Get("dataset"), key)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = resp.WriteJSON(w)
}

// serveFill accepts POST /cluster/fill?dataset=<name>: body is a peerFill;
// always 204 (fills are best effort on both sides).
func (n *Node) serveFill(w http.ResponseWriter, r *http.Request) {
	if !n.authorizePeer(w, r) {
		return
	}
	var f peerFill
	r.Body = http.MaxBytesReader(w, r.Body, middleware.MaxIngestBody)
	if err := json.NewDecoder(r.Body).Decode(&f); err != nil {
		http.Error(w, "bad fill body: "+err.Error(), http.StatusBadRequest)
		return
	}
	n.fillLocal(r.URL.Query().Get("dataset"), f.Key, f.Response)
	w.WriteHeader(http.StatusNoContent)
}

// CacheSnapshot returns the node's peer-cache counters.
func (n *Node) CacheSnapshot() CacheSnapshot { return n.stats.snapshot() }

// HedgeConfig tunes hedged peer fetches: when the key's owner has not
// answered within a delay derived from recent fetch latencies, a second
// fetch races against the next replica in the key's ring sequence; the
// first response wins and the loser is cancelled. One slow (or silently
// dead) owner then costs roughly the hedge delay, not the full peer
// timeout. The zero value picks every default.
type HedgeConfig struct {
	// Quantile of the recent primary-fetch latency distribution that
	// arms the hedge timer. Default 0.9 — hedges fire for the slowest
	// ~10% of fetches, keeping duplicate work bounded.
	Quantile float64
	// MinDelay floors the armed delay (and is the cold-start delay while
	// the latency window is empty). Default 5ms.
	MinDelay time.Duration
	// MaxDelay caps the armed delay. Default DefaultPeerTimeout/2 — a
	// hedge that can't beat the primary's timeout is pointless.
	MaxDelay time.Duration
	// Disabled turns hedging off (single-fetch behavior).
	Disabled bool
}

// normalized resolves defaults.
func (c HedgeConfig) normalized() HedgeConfig {
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.9
	}
	if c.MinDelay <= 0 {
		c.MinDelay = 5 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = DefaultPeerTimeout / 2
	}
	return c
}

// latencyWindowSize bounds the per-node sample window the hedge delay is
// derived from. 128 samples follow latency shifts within a few seconds of
// traffic while keeping the quantile computation trivial.
const latencyWindowSize = 128

// latencyWindow is a fixed-size ring of recent peer-fetch latencies.
type latencyWindow struct {
	mu  sync.Mutex
	buf [latencyWindowSize]time.Duration
	n   int // samples stored (≤ len(buf))
	idx int // next write position
}

// observe records one latency sample.
func (w *latencyWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// quantile returns the q-quantile of the window, or 0 while it is empty.
func (w *latencyWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	if w.n == 0 {
		w.mu.Unlock()
		return 0
	}
	tmp := make([]time.Duration, w.n)
	copy(tmp, w.buf[:w.n])
	w.mu.Unlock()
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	i := int(q * float64(len(tmp)))
	if i >= len(tmp) {
		i = len(tmp) - 1
	}
	return tmp[i]
}

// hedgeDelay derives the current hedge delay from the latency window.
func (n *Node) hedgeDelay(cfg HedgeConfig) time.Duration {
	d := n.fetchLat.quantile(cfg.Quantile)
	if d < cfg.MinDelay {
		d = cfg.MinDelay
	}
	if d > cfg.MaxDelay {
		d = cfg.MaxDelay
	}
	return d
}

// hedgeTarget picks the replica a hedged fetch races against: the next
// replica in the key's ring sequence after the owner (skipping self) —
// the replica most likely to hold the key after a membership change or an
// async fill. Nil when the cluster has no third party to ask.
func (n *Node) hedgeTarget(key middleware.ResultKey, owner int) PeerClient {
	for _, idx := range n.ring.Sequence(key.Hash()) {
		if idx == owner || idx == n.id {
			continue
		}
		if p := n.peer(idx); p != nil {
			return p
		}
	}
	return nil
}

// fetchOutcome is one leg's result in the hedged race.
type fetchOutcome struct {
	resp   *middleware.Response
	ok     bool
	err    error
	hedged bool
	took   time.Duration
}

// hedgedFetch asks the key's owner for a cached result, racing a hedge
// fetch against the next ring replica if the owner is slow (see
// HedgeConfig). The first response — hit or clean miss — wins; the losing
// leg is cancelled through the shared context. An owner error before the
// hedge timer fires launches the hedge immediately. Both legs failing
// returns the first error (the caller degrades to local compute).
func (n *Node) hedgedFetch(dataset string, key middleware.ResultKey, owner int, primary PeerClient) (*middleware.Response, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultPeerTimeout)
	defer cancel() // cancels the losing leg

	ch := make(chan fetchOutcome, 2) // buffered: the loser never blocks
	launch := func(p PeerClient, hedged bool) {
		start := time.Now()
		resp, ok, err := p.FetchResult(ctx, dataset, key)
		ch <- fetchOutcome{resp: resp, ok: ok, err: err, hedged: hedged, took: time.Since(start)}
	}
	go launch(primary, false)

	cfg := n.hedgeConfig()
	var hedgeC <-chan time.Time
	var hedgePeer PeerClient
	if !cfg.Disabled {
		if hedgePeer = n.hedgeTarget(key, owner); hedgePeer != nil {
			t := time.NewTimer(n.hedgeDelay(cfg))
			defer t.Stop()
			hedgeC = t.C
		}
	}
	launchHedge := func() {
		hedgeC = nil
		n.stats.hedgedFetches.Add(1)
		go launch(hedgePeer, true)
	}

	outstanding := 1
	var firstErr error
	for {
		select {
		case <-hedgeC:
			outstanding++
			launchHedge()
		case out := <-ch:
			outstanding--
			if out.err == nil {
				if out.hedged {
					n.stats.hedgeWins.Add(1)
				} else {
					// Only primary latencies feed the window: hedge legs
					// are a different (already-failing) distribution.
					n.fetchLat.observe(out.took)
				}
				return out.resp, out.ok, nil
			}
			if isTimeout(out.err) {
				n.stats.fetchTimeouts.Add(1)
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if outstanding == 0 {
				if hedgeC != nil && hedgePeer != nil {
					// The owner failed before the timer: fire the hedge
					// now rather than give up.
					outstanding++
					launchHedge()
					continue
				}
				return nil, false, firstErr
			}
		}
	}
}
