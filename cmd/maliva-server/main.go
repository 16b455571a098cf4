// Command maliva-server runs the Maliva middleware as an HTTP gateway over
// one or more synthetic datasets: it registers each requested dataset,
// (optionally) trains an MDP agent per dataset at startup, then serves
// visualization requests at POST /viz?dataset=<name> with plan/result
// caching and one admission budget shared across datasets. POST
// /ingest?dataset=<name> appends rows through the adaptive write batcher
// (every flush bumps the dataset's data version, atomically invalidating
// all cached answers). GET /datasets, GET /healthz and GET /metrics expose
// the serving state, per dataset and rolled up.
//
//	maliva-server -dataset twitter -dataset taxi
//	curl -s 'localhost:8080/viz?dataset=twitter' -d '{
//	  "keyword": "word0007",
//	  "from": "2016-11-20T00:00:00Z", "to": "2016-11-27T00:00:00Z",
//	  "min_lon": -124.4, "min_lat": 32.5, "max_lon": -114.1, "max_lat": 42.0,
//	  "kind": "heatmap", "budget_ms": 500
//	}'
//
// Cluster mode (internal/cluster): one process per replica, every process
// given the same ordered -peer list. Peers share result caches through the
// /cluster endpoints; routing across replicas is the load balancer's job.
//
//	maliva-server -replica-id 0 \
//	  -peer http://host0:8080 \
//	  -peer http://host1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/maliva/maliva/internal/cluster"
	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

// stringList collects repeated (or comma-separated) flag values.
type stringList []string

func (d *stringList) String() string { return strings.Join(*d, ",") }

func (d *stringList) Set(v string) error {
	for _, name := range strings.Split(v, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		*d = append(*d, name)
	}
	return nil
}

// agentMap collects repeated -agent values: "dataset=path" pins a snapshot
// to one dataset; a bare "path" is the fallback for every dataset without a
// pinned one (the spelling for a single-dataset server).
type agentMap map[string]string

func (a agentMap) String() string {
	parts := make([]string, 0, len(a))
	for k, v := range a {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (a agentMap) Set(v string) error {
	if name, path, ok := strings.Cut(v, "="); ok && !strings.Contains(name, "/") {
		a[name] = path
		return nil
	}
	a[""] = v
	return nil
}

// snapshotFor resolves the path serving a dataset, if any.
func (a agentMap) snapshotFor(dataset string) (string, bool) {
	if p, ok := a[dataset]; ok {
		return p, true
	}
	p, ok := a[""]
	return p, ok
}

// validatePins fails on a pinned dataset that is not served — a mistyped
// pin would otherwise silently fall through.
func (a agentMap) validatePins(datasets stringList) {
	for name := range a {
		if name == "" {
			continue
		}
		if !slices.Contains(datasets, name) {
			fatal(fmt.Errorf("-agent %s=%s pins a dataset that is not served (have: %s)",
				name, a[name], datasets.String()))
		}
	}
}

func main() {
	var datasets stringList
	flag.Var(&datasets, "dataset", "dataset to serve: twitter | taxi | tpch (repeatable or comma-separated; default twitter)")
	agents := make(agentMap)
	flag.Var(agents, "agent", "trained MDP policy snapshot (from maliva-train): 'dataset=path' pins one dataset, bare 'path' covers the rest; skips that dataset's startup training (repeatable)")
	var peers stringList
	flag.Var(&peers, "peer", "full ordered replica URL list for a one-process-per-replica cluster, self included (repeatable); requires -replica-id")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		budget   = flag.Float64("budget", 500, "default time budget in virtual ms")
		queries  = flag.Int("queries", 400, "training workload size per dataset")
		rows     = flag.Int("rows", 60_000, "stored rows per dataset")
		rewriter = flag.String("rewriter", "mdp", "rewriting strategy: mdp (trains per dataset at startup) or oracle")

		replicaID   = flag.Int("replica-id", -1, "this process's index into the -peer list (requires -peer)")
		peerTimeout = flag.Duration("peer-timeout", cluster.DefaultPeerTimeout, "timeout for one peer cache fetch, hedged leg included, and for one fill (requires -peer)")
		peerSecret  = flag.String("peer-secret", "", "shared secret required on /cluster peer endpoints (all replicas must agree; requires -peer); without it anyone reaching the listener can read and poison the result cache")
		noHedge     = flag.Bool("no-hedge", false, "disable hedged peer fetches (single-fetch behavior; requires -peer)")

		walDir       = flag.String("wal-dir", "", "directory for per-dataset write-ahead logs (empty = durability off); sync /ingest acks become durable before they are sent, and startup replays any existing log before the listener opens")
		fsyncMode    = flag.String("fsync", "always", "WAL fsync policy: always (fsync before every sync ack), interval (background fsync, bounded loss window), never (OS page cache only)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget: how long in-flight requests may finish after SIGTERM/SIGINT before the listener is torn down")
	)
	flag.Parse()

	// Reject what the server would otherwise quietly replace or ignore: a
	// non-positive budget would train the startup agent at a budget the
	// server never serves (it normalizes to the 500 ms default), and the
	// cluster flags mean nothing without a -peer list.
	for _, f := range []struct {
		name string
		v    float64
	}{{"budget", *budget}, {"rows", float64(*rows)}, {"queries", float64(*queries)}} {
		if f.v <= 0 {
			fatal(fmt.Errorf("-%s must be positive, got %v", f.name, f.v))
		}
	}
	if len(peers) == 0 {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "replica-id", "peer-timeout", "peer-secret", "no-hedge":
				fatal(fmt.Errorf("-%s requires -peer", f.Name))
			}
		})
	}
	if len(datasets) == 0 {
		datasets = stringList{"twitter"}
	}
	agents.validatePins(datasets)
	if len(peers) > 0 && (*replicaID < 0 || *replicaID >= len(peers)) {
		fatal(fmt.Errorf("-replica-id %d outside the %d-entry -peer list", *replicaID, len(peers)))
	}
	fsyncPolicy, err := engine.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}
	walCfg := engine.WALConfig{Policy: fsyncPolicy}

	factory := buildFactory(*rewriter, agents, *queries, *budget)
	scfg := middleware.ServerConfig{DefaultBudgetMs: *budget}

	var handler http.Handler
	var drain func()          // stop admitting new work; in-flight requests finish
	var closeAll func() error // after Shutdown: flush ingest buffers, stop workers, sync+close WALs
	switch {
	case len(peers) > 0:
		// One process per replica: this node serves its gateway plus the
		// /cluster peer endpoints; the other processes are reached over
		// HTTP. Routing across replicas is the load balancer's job — any
		// replica can serve any key through the peer-shared cache.
		ring := cluster.NewRing(len(peers))
		reg, closeWALs := newRegistry(datasets, *rows, *walDir, walCfg)
		t0 := time.Now()
		node, err := cluster.NewNode(*replicaID, ring, reg, factory, middleware.GatewayConfig{
			Server: scfg,
			Space:  core.HintOnlySpec(),
		})
		if err != nil {
			fatal(err)
		}
		logBuilt(len(datasets), t0)
		pcs := make([]cluster.PeerClient, len(peers))
		for i, u := range peers {
			if i != *replicaID {
				pcs[i] = cluster.NewHTTPPeer(strings.TrimSuffix(u, "/"), *peerSecret)
			}
		}
		node.SetPeers(pcs, *peerTimeout)
		node.SetPeerSecret(*peerSecret)
		node.SetHedge(!*noHedge)
		fmt.Fprintf(os.Stderr,
			"maliva replica %d/%d listening on %s (datasets=%s, rewriter=%s)\n",
			*replicaID, len(peers), *addr, datasets.String(), *rewriter)
		handler = node.Handler()
		drain = node.Drain
		closeAll = func() error {
			node.Close()
			err := node.Gateway().Close()
			if werr := closeWALs(); werr != nil && err == nil {
				err = werr
			}
			return err
		}

	default:
		reg, closeWALs := newRegistry(datasets, *rows, *walDir, walCfg)
		t0 := time.Now()
		gw, err := middleware.NewGateway(reg, factory, middleware.GatewayConfig{
			Server: scfg,
			Space:  core.HintOnlySpec(),
		})
		if err != nil {
			fatal(err)
		}
		logBuilt(len(datasets), t0)
		fmt.Fprintf(os.Stderr,
			"maliva gateway listening on %s (datasets=%s, default=%s, rewriter=%s)\n",
			*addr, datasets.String(), gw.DefaultDataset(), *rewriter)
		handler = gw.Handler()
		drain = gw.Drain
		closeAll = func() error {
			err := gw.Close()
			if werr := closeWALs(); werr != nil && err == nil {
				err = werr
			}
			return err
		}
	}

	// The listener opens only now, after every dataset is built and its WAL
	// replayed, so a restarting server takes no traffic before its data is
	// complete.
	server := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.ListenAndServe() }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigCh:
		// Graceful shutdown: flip to draining (healthz answers 503 so load
		// balancers and the cluster router fail over), let in-flight
		// requests finish under the drain budget, then flush ingest buffers
		// and sync+close the WALs. A second signal exits immediately.
		fmt.Fprintf(os.Stderr, "maliva-server: %s: draining (budget %s; signal again to force exit)\n", sig, *drainTimeout)
		go func() {
			<-sigCh
			fmt.Fprintln(os.Stderr, "maliva-server: forced exit")
			os.Exit(1)
		}()
		drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := server.Shutdown(ctx)
		cancel()
		if cerr := closeAll(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "maliva-server: clean shutdown")
	}
}

// newRegistry registers the standard builders for the requested datasets.
// With a non-empty walDir each builder, after generating its dataset,
// attaches a write-ahead log at <walDir>/<name>: existing segments replay
// into the fresh dataset before the gateway exists, and every subsequent
// ingest flush is logged before it is acknowledged. The returned closer
// syncs and closes every attached WAL; call it after the gateway (and its
// ingest buffers) have shut down.
func newRegistry(datasets stringList, rows int, walDir string, wcfg engine.WALConfig) (*workload.Registry, func() error) {
	reg := workload.NewRegistry()
	var mu sync.Mutex
	var wals []*engine.WAL
	for _, name := range datasets {
		build, err := workload.StandardBuilder(name, rows)
		if err != nil {
			fatal(err)
		}
		if walDir != "" {
			inner := build
			dir := filepath.Join(walDir, name)
			build = func() (*workload.Dataset, error) {
				ds, err := inner()
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				wal, stats, err := ds.DB.AttachWAL(ds.Main, dir, wcfg)
				if err != nil {
					return nil, fmt.Errorf("attach WAL for %s: %w", name, err)
				}
				mu.Lock()
				wals = append(wals, wal)
				mu.Unlock()
				fmt.Fprintf(os.Stderr, "%s: WAL at %s (replayed %d records / %d rows to version %d in %s)\n",
					name, dir, stats.Records, stats.Rows, stats.Version, time.Since(t0).Round(time.Millisecond))
				return ds, nil
			}
		}
		if err := reg.Register(name, build); err != nil {
			fatal(err)
		}
	}
	closer := func() error {
		mu.Lock()
		defer mu.Unlock()
		var first error
		for _, w := range wals {
			if err := w.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return reg, closer
}

// logBuilt reports how long building every dataset took.
func logBuilt(n int, t0 time.Time) {
	fmt.Fprintf(os.Stderr, "built %d dataset(s) in %s\n", n, time.Since(t0).Round(time.Millisecond))
}

// buildFactory resolves the per-dataset rewriter factory: oracle, snapshot
// load, or startup MDP training. A policy worth keeping is trained offline
// with maliva-train and served with -agent.
func buildFactory(rewriter string, agents agentMap, queries int, budget float64) middleware.RewriterFactory {
	switch rewriter {
	case "oracle":
		return middleware.OracleFactory
	case "mdp":
		return func(name string, ds *workload.Dataset) (core.Rewriter, error) {
			if path, ok := agents.snapshotFor(name); ok {
				t0 := time.Now()
				a, err := core.LoadAgentFile(path)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "%s: loaded agent snapshot %s in %s\n",
					name, path, time.Since(t0).Round(time.Millisecond))
				return &core.MDPRewriter{Agent: a, QTE: qte.NewAccurateQTE(), Tag: "Accurate-QTE"}, nil
			}
			fmt.Fprintf(os.Stderr, "training MDP agent for %s...\n", ds.Name)
			lab, err := harness.BuildLab(ds, harness.LabConfig{
				NumQueries: queries,
				QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
				Space:      core.HintOnlySpec(),
				Budget:     budget,
				Seed:       9,
				Progress:   os.Stderr,
			})
			if err != nil {
				return nil, err
			}
			est := qte.NewAccurateQTE()
			agent, score := lab.TrainAgent(harness.TrainAgentConfig{
				Agent: core.DefaultAgentConfig(),
				QTE:   est,
				Seeds: []int64{7},
			})
			fmt.Fprintf(os.Stderr, "%s agent ready (validation score %.3f)\n", ds.Name, score)
			return &core.MDPRewriter{Agent: agent, QTE: est, Tag: "Accurate-QTE"}, nil
		}
	default:
		fatal(fmt.Errorf("unknown -rewriter %q (want mdp or oracle)", rewriter))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maliva-server:", err)
	os.Exit(1)
}
