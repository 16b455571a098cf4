package cluster

import (
	"fmt"
	"net/http"
	"sync"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// Config sizes an in-process cluster: N replicas in one process, each a
// full gateway, sharing the (immutable) built datasets and one memoized
// rewriter per dataset. It is a library for the cluster tests and the
// benchmark's routing trace, not a deployment: N gateways sharing one
// process's cores cannot beat one gateway on the same cores. The shipped
// deployment is one process per replica (maliva-server -peer), which
// assembles the same pieces by hand (NewNode + NewHTTPPeer).
type Config struct {
	// Replicas is the cluster size. Must be >= 1.
	Replicas int
	// VNodes is the virtual-node count per replica (0 = DefaultVNodes).
	VNodes int
	// Names is the dataset registration order (the first is every
	// replica's default dataset).
	Names []string
	// Datasets maps every name to its built dataset. Replicas share these
	// values; datasets are immutable once built.
	Datasets map[string]*workload.Dataset
	// Factory builds each dataset's rewriter. It is automatically wrapped
	// with SharedRewriterFactory, so it runs once per dataset for the whole
	// cluster (not once per replica) and the shared rewriter is serialized.
	Factory middleware.RewriterFactory
	// Server is each replica's serving template (per-replica caches and
	// admission are sized from it, exactly like a standalone gateway).
	Server middleware.ServerConfig
	// Space is the rewrite option space.
	Space core.SpaceSpec
	// Hedge tunes each replica's hedged peer fetches (zero = defaults,
	// see HedgeConfig).
	Hedge HedgeConfig
}

// Cluster is an in-process replica set: N nodes, their ring, and the
// routing tier in front.
type Cluster struct {
	ring   *Ring
	nodes  []*Node
	router *Router
}

// New builds the cluster. Every replica gets its own registry (over the
// shared datasets), gateway, caches, admission pool, and session tracker —
// exactly what a maliva-server -peer process runs; peers are wired
// in-process.
func New(cfg Config) (*Cluster, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 replica, got %d", cfg.Replicas)
	}
	if len(cfg.Names) == 0 {
		return nil, fmt.Errorf("cluster: no datasets")
	}
	for _, name := range cfg.Names {
		if cfg.Datasets[name] == nil {
			return nil, fmt.Errorf("cluster: dataset %q has no built value", name)
		}
	}
	ring := NewRing(cfg.Replicas, cfg.VNodes)
	factory := SharedRewriterFactory(cfg.Factory)
	nodes := make([]*Node, cfg.Replicas)
	for i := range nodes {
		reg := workload.NewRegistry()
		for _, name := range cfg.Names {
			ds := cfg.Datasets[name]
			if err := reg.Register(name, func() (*workload.Dataset, error) { return ds, nil }); err != nil {
				return nil, err
			}
		}
		n, err := NewNode(i, ring, reg, factory, middleware.GatewayConfig{
			Server: cfg.Server,
			Space:  cfg.Space,
		})
		if err != nil {
			return nil, err
		}
		n.SetHedge(cfg.Hedge)
		nodes[i] = n
	}
	for i, n := range nodes {
		peers := make([]PeerClient, len(nodes))
		for j, m := range nodes {
			if j != i {
				peers[j] = localPeer{node: m}
			}
		}
		n.SetPeers(peers)
	}
	router, err := NewRouter(ring, nodes)
	if err != nil {
		return nil, err
	}
	// Peer-cache ownership must agree with routing: every node resolves
	// owners over the replicas whose state reads live (Ring.OwnerAmong) —
	// the same read the router's attemptOrder makes — not the full ring, so
	// the replica a key's requests concentrate on is the replica its peers
	// fetch from.
	routable := func(i int) bool { return nodes[i].routingState() == StateLive }
	for _, n := range nodes {
		n.SetHealth(routable)
	}
	return &Cluster{ring: ring, nodes: nodes, router: router}, nil
}

// Warm eagerly builds every dataset's serving state on every replica.
// Datasets are pre-built and rewriters memoized cluster-wide, so per-replica
// warmup is cheap (server construction + cache allocation).
func (c *Cluster) Warm() error {
	return core.RunIndexed(len(c.nodes), 0, func(i int) error { return c.nodes[i].Warm() })
}

// Handler returns the routing tier's HTTP surface.
func (c *Cluster) Handler() http.Handler { return c.router.Handler() }

// Router returns the routing tier (metrics, snapshots).
func (c *Cluster) Router() *Router { return c.router }

// Ring returns the cluster's hash ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Nodes returns the replicas in ring order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns one replica.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Snapshot returns the cluster-wide metrics snapshot.
func (c *Cluster) Snapshot() Snapshot { return c.router.Snapshot() }

// Kill marks replica i crashed; the next routed request already goes
// around it.
func (c *Cluster) Kill(i int) { c.nodes[i].SetDown(true) }

// Revive brings a killed replica back; the next request for a key it owns
// is routed to it again.
func (c *Cluster) Revive(i int) { c.nodes[i].SetDown(false) }

// Drain gracefully removes replica i from the routed set; its cache stays
// readable by peers.
func (c *Cluster) Drain(i int) { c.nodes[i].Drain() }

// Rejoin returns a drained replica to service.
func (c *Cluster) Rejoin(i int) { c.nodes[i].Rejoin() }

// Close shuts every replica down the way a maliva-server -peer process does:
// its fill worker stops, then its gateway closes (session observer stopped,
// ingest batchers flushed, servers unhooked from the shared datasets). It
// returns the first gateway close error.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		n.Close()
		if err := n.Gateway().Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// lockedRewriter serializes a rewriter shared across replicas. Each
// middleware.Server already serializes its own rewriter calls, but two
// replicas' servers are two independent serializers — the shared MDP
// agent's forward-pass scratch buffers need one cluster-wide lock. Rewrite
// outcomes are deterministic functions of (ctx, budget), so serialization
// order never changes a response.
type lockedRewriter struct {
	mu    sync.Mutex
	inner core.Rewriter
}

func (r *lockedRewriter) Name() string { return r.inner.Name() }

func (r *lockedRewriter) Rewrite(ctx *core.QueryContext, budget float64) core.Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner.Rewrite(ctx, budget)
}

// SharedRewriterFactory memoizes a RewriterFactory per dataset name and
// wraps each built rewriter with a cluster-wide lock, so an R-replica
// cluster trains (or loads) each dataset's policy once instead of R times
// and shares the instance safely. Concurrent first calls for the same name
// single-flight; a factory error is cached (builders are deterministic, so
// retrying would fail identically — matching workload.Registry semantics).
func SharedRewriterFactory(f middleware.RewriterFactory) middleware.RewriterFactory {
	if f == nil {
		f = middleware.OracleFactory
	}
	type slot struct {
		once sync.Once
		rw   core.Rewriter
		err  error
	}
	var mu sync.Mutex
	slots := make(map[string]*slot)
	return func(name string, ds *workload.Dataset) (core.Rewriter, error) {
		mu.Lock()
		s := slots[name]
		if s == nil {
			s = &slot{}
			slots[name] = s
		}
		mu.Unlock()
		s.once.Do(func() {
			rw, err := f(name, ds)
			if err != nil {
				s.err = err
				return
			}
			s.rw = &lockedRewriter{inner: rw}
		})
		return s.rw, s.err
	}
}
