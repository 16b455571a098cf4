package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// newIngestCluster builds a warm cluster over its own PRIVATE Twitter
// dataset — ingest mutates the dataset, so these tests never touch the
// shared testDatasets the read-only tests reuse.
func newIngestCluster(t testing.TB, replicas int) (*Cluster, *workload.Dataset) {
	t.Helper()
	twc := workload.TwitterConfig()
	twc.Rows = 8_000
	twc.Scale = 100e6 / float64(twc.Rows)
	tw, err := workload.Twitter(twc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Replicas: replicas,
		Names:    []string{"twitter"},
		Datasets: map[string]*workload.Dataset{"twitter": tw},
		Factory:  middleware.OracleFactory,
		Server:   middleware.ServerConfig{DefaultBudgetMs: 500},
		Space:    core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Warm(); err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, c)
	return c, tw
}

// ingestBody builds a POST /ingest payload of n rows from the stream.
func ingestBody(t testing.TB, stream *workload.IngestStream, n int, sync bool) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"rows": stream.Next(n), "sync": sync})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterIngestNoStaleReads is the cluster-level stale-read acceptance
// test: after every routed ingest flush, the full cluster (router, replica
// caches, peer fetch/fill) answers byte-identically to a cache-free control
// server reading the same shared dataset — which by construction always
// computes at the exact flushed version. Run with -race.
func TestClusterIngestNoStaleReads(t *testing.T) {
	c, tw := newIngestCluster(t, 3)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	// The control shares the cluster's dataset values and disables every
	// cache, so it can never serve a pre-flush answer.
	control, err := middleware.NewServerWithConfig(tw, core.OracleRewriter{}, core.HintOnlySpec(),
		middleware.ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewIngestStream(tw, 99)
	if err != nil {
		t.Fatal(err)
	}

	shapes := make([][]byte, 0, 4)
	for i := 0; i < 4; i++ {
		shapes = append(shapes, twitterBody(fmt.Sprintf("word%04d", 40+i)))
	}

	// Concurrent readers race the flushes through the router.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				postOK(t, cs.URL+"/viz?dataset=twitter", shapes[(w+i)%len(shapes)])
			}
		}(w)
	}

	for round := 1; round <= 4; round++ {
		var res middleware.IngestResult
		body := postOK(t, cs.URL+"/ingest?dataset=twitter", ingestBody(t, stream, 48, true))
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Flushed || res.Version != uint64(round) {
			t.Fatalf("round %d: ingest result %+v, want synchronous flush at v%d", round, res, round)
		}
		for i, sh := range shapes {
			got := postOK(t, cs.URL+"/viz?dataset=twitter", sh)
			req, err := middleware.ParseRequest(sh)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := control.Handle(req)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("round %d shape %d: STALE READ — cluster diverges from uncached control\n got %s\nwant %s",
					round, i, got, want.Bytes())
			}
		}
	}
	close(stop)
	wg.Wait()

	// Shared datasets: one flush is every replica's flush.
	for i, n := range c.Nodes() {
		if v, ok := n.dataVersion("twitter"); !ok || v != 4 {
			t.Errorf("replica %d sees version %d (ok=%v), want 4", i, v, ok)
		}
	}
}

// TestPeerVersionRejects pins the cross-version guards on the peer wire
// surface: owners refuse fetches for keys at another data version, and
// drop fills carrying one.
func TestPeerVersionRejects(t *testing.T) {
	c, tw := newIngestCluster(t, 2)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	body := twitterBody("word0025")
	before := c.Snapshot()
	served := postOK(t, cs.URL+"/viz?dataset=twitter", body)
	owner := routedTo(t, before, c.Snapshot())
	other := 1 - owner
	key := resultKeyOf(t, served, workload.USExtent, 500) // DataVersion 0 = current

	// Exact-version fetch: a hit.
	resp, ok := c.Node(owner).fetchLocal("twitter", key)
	if !ok || resp == nil {
		t.Fatal("owner does not hold its own served key")
	}

	// Wrong-version fetch: refused and counted.
	stale := key
	stale.DataVersion = 999
	beforeStats := c.Node(owner).CacheSnapshot()
	if _, ok := c.Node(owner).fetchLocal("twitter", stale); ok {
		t.Error("owner served a cross-version fetch")
	}
	afterStats := c.Node(owner).CacheSnapshot()
	if d := afterStats.FetchVersionRejects - beforeStats.FetchVersionRejects; d != 1 {
		t.Errorf("fetch version rejects delta = %d, want 1", d)
	}

	// Wrong-version fill: dropped and counted, nothing stored.
	beforeStats = c.Node(other).CacheSnapshot()
	c.Node(other).fillLocal("twitter", stale, resp)
	afterStats = c.Node(other).CacheSnapshot()
	if d := afterStats.FillVersionRejects - beforeStats.FillVersionRejects; d != 1 {
		t.Errorf("fill version rejects delta = %d, want 1", d)
	}
	if d := afterStats.FillsReceived - beforeStats.FillsReceived; d != 0 {
		t.Errorf("stale fill was accepted (fills received delta %d)", d)
	}

	// Current-version fill is accepted.
	c.Node(other).fillLocal("twitter", key, resp)
	if got := c.Node(other).CacheSnapshot().FillsReceived - afterStats.FillsReceived; got != 1 {
		t.Errorf("current-version fill not accepted (delta %d)", got)
	}

	// After a real flush the once-current key is itself refused: pre-flush
	// answers cannot cross the wire anymore.
	stream, err := workload.NewIngestStream(tw, 5)
	if err != nil {
		t.Fatal(err)
	}
	postOK(t, cs.URL+"/ingest?dataset=twitter", ingestBody(t, stream, 16, true))
	if _, ok := c.Node(owner).fetchLocal("twitter", key); ok {
		t.Error("owner served a pre-flush key after the flush")
	}
}

// TestPeerOwnershipFollowsHealth pins the ownership/routing alignment:
// peer-cache owners are resolved over the replicas whose own state reads
// live — the same read the router makes — so while a replica is dead every
// node's ownerFor agrees with the router's first choice, and the moment it
// is revived its keys, and the very next request for one, return to it.
func TestPeerOwnershipFollowsHealth(t *testing.T) {
	c, _ := newIngestCluster(t, 3)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	rt := c.Router()

	// While everyone is live, ownerFor matches the plain ring owner.
	for h := uint64(0); h < 64; h++ {
		hash := avalanche(h * 0x9E3779B97F4A7C15)
		if got, want := c.Node(0).ownerFor(hash), c.Ring().Owner(hash); got != want {
			t.Fatalf("hash %#x: healthy ownerFor = %d, ring owner = %d", hash, got, want)
		}
	}

	// Find a shape routed to replica 0: its result key is replica 0's.
	var body []byte
	var hash uint64
	for i := 0; i < 64 && body == nil; i++ {
		b := twitterBody(fmt.Sprintf("word%04d", 100+i))
		before := c.Snapshot()
		resp := postOK(t, cs.URL+"/viz?dataset=twitter", b)
		if routedTo(t, before, c.Snapshot()) == 0 {
			body, hash = b, resultKeyOf(t, resp, workload.USExtent, 500).Hash()
		}
	}
	if body == nil {
		t.Fatal("no shape routed to replica 0 (64 tried)")
	}

	c.Kill(0)
	first := rt.attemptOrder(hash)[0]
	if first == 0 {
		t.Fatal("router still tries the dead replica first")
	}
	for _, n := range c.Nodes() {
		if got := n.ownerFor(hash); got != first {
			t.Errorf("replica %d ownerFor = %d, router tries %d first", n.ID(), got, first)
		}
	}
	before := c.Snapshot()
	postOK(t, cs.URL+"/viz?dataset=twitter", body)
	if got := routedTo(t, before, c.Snapshot()); got != first {
		t.Errorf("with replica 0 dead the request went to %d, want %d", got, first)
	}

	c.Revive(0)
	before = c.Snapshot()
	postOK(t, cs.URL+"/viz?dataset=twitter", body)
	if got := routedTo(t, before, c.Snapshot()); got != 0 {
		t.Errorf("first request after Revive(0) went to %d, want 0", got)
	}
	for _, n := range c.Nodes() {
		if got := n.ownerFor(hash); got != 0 {
			t.Errorf("after Revive(0), replica %d ownerFor = %d, want 0", n.ID(), got)
		}
	}

	// Without a view (one-process-per-replica deployments), the full-ring
	// owner is the only consistent answer, dead or not.
	c.Kill(0)
	c.Node(1).SetHealth(nil)
	if got := c.Node(1).ownerFor(hash); got != 0 {
		t.Errorf("no-view ownerFor = %d, want full-ring owner 0", got)
	}
}

// TestRouterIngestSingleWriter: the router sends a dataset's ingest traffic
// to one replica (by dataset-name hash), keeping a single adaptive batcher
// hot per dataset, and fails writes over when that replica dies.
func TestRouterIngestSingleWriter(t *testing.T) {
	c, tw := newIngestCluster(t, 3)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	stream, err := workload.NewIngestStream(tw, 13)
	if err != nil {
		t.Fatal(err)
	}

	before := c.Snapshot()
	for i := 0; i < 3; i++ {
		postOK(t, cs.URL+"/ingest?dataset=twitter", ingestBody(t, stream, 8, true))
	}
	writer := routedTo(t, before, c.Snapshot())
	after := c.Snapshot()
	if d := after.Replicas[writer].Routed - before.Replicas[writer].Routed; d != 3 {
		t.Errorf("writer absorbed %d of 3 ingests", d)
	}

	// Writer dies → ingest fails over, data still lands (shared dataset).
	c.Kill(writer)
	var res middleware.IngestResult
	body := postOK(t, cs.URL+"/ingest?dataset=twitter", ingestBody(t, stream, 8, true))
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.Version != 4 {
		t.Errorf("failover ingest result %+v, want flush at v4", res)
	}
}
