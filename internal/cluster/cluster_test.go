package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// Test datasets are built once per binary and shared: they are immutable,
// and that is exactly how a cluster shares them across replicas.
var (
	testDSOnce sync.Once
	testDS     map[string]*workload.Dataset
	testDSErr  error
)

func testDatasets(t testing.TB) map[string]*workload.Dataset {
	t.Helper()
	testDSOnce.Do(func() {
		twc := workload.TwitterConfig()
		twc.Rows = 8_000
		twc.Scale = 100e6 / float64(twc.Rows)
		txc := workload.TaxiConfig()
		txc.Rows = 8_000
		txc.Scale = 500e6 / float64(txc.Rows)
		tw, err := workload.Twitter(twc)
		if err != nil {
			testDSErr = err
			return
		}
		tx, err := workload.Taxi(txc)
		if err != nil {
			testDSErr = err
			return
		}
		testDS = map[string]*workload.Dataset{"twitter": tw, "taxi": tx}
	})
	if testDSErr != nil {
		t.Fatal(testDSErr)
	}
	return testDS
}

// newTestCluster builds an R-replica cluster over tiny Twitter + Taxi.
func newTestCluster(t testing.TB, replicas int) *Cluster {
	t.Helper()
	ds := testDatasets(t)
	c, err := New(Config{
		Replicas: replicas,
		Names:    []string{"twitter", "taxi"},
		Datasets: ds,
		Factory:  middleware.OracleFactory,
		Server:   middleware.ServerConfig{DefaultBudgetMs: 500},
		Space:    core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, c)
	return c
}

// closeOnCleanup closes c when the test ends, failing it on a close error.
func closeOnCleanup(t testing.TB, c *Cluster) {
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
}

// newTestGateway builds the warm single-gateway reference over the same
// shared datasets.
func newTestGateway(t testing.TB) *middleware.Gateway {
	t.Helper()
	ds := testDatasets(t)
	reg := workload.NewRegistry()
	for _, name := range []string{"twitter", "taxi"} {
		d := ds[name]
		if err := reg.Register(name, func() (*workload.Dataset, error) { return d, nil }); err != nil {
			t.Fatal(err)
		}
	}
	g, err := middleware.NewGateway(reg, middleware.OracleFactory, middleware.GatewayConfig{
		Server: middleware.ServerConfig{DefaultBudgetMs: 500},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twitterBody is a valid request body against the Twitter dataset.
func twitterBody(keyword string) []byte {
	b, _ := json.Marshal(map[string]any{
		"keyword": keyword,
		"from":    "2016-03-01T00:00:00Z", "to": "2016-05-01T00:00:00Z",
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
		"kind": "heatmap", "grid_w": 16, "grid_h": 8, "budget_ms": 500,
	})
	return b
}

// taxiBody is a valid request body against the Taxi dataset.
func taxiBody(month int) []byte {
	from := time.Date(2010, time.Month(month), 1, 0, 0, 0, 0, time.UTC)
	b, _ := json.Marshal(map[string]any{
		"from": from.Format(time.RFC3339), "to": from.AddDate(0, 2, 0).Format(time.RFC3339),
		"min_lon": workload.NYCExtent.MinLon, "min_lat": workload.NYCExtent.MinLat,
		"max_lon": workload.NYCExtent.MaxLon, "max_lat": workload.NYCExtent.MaxLat,
		"kind": "heatmap", "grid_w": 16, "grid_h": 16, "budget_ms": 500,
	})
	return b
}

// post fires one request and returns (status, headers, body).
func post(t testing.TB, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// postOK is post asserting HTTP 200.
func postOK(t testing.TB, url string, body []byte) []byte {
	t.Helper()
	code, _, data := post(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	return data
}

// resultKeyOf reconstructs the result-cache key of a served twitter-shaped
// response: the rewritten SQL comes from the trace, everything else from
// the request, normalized the way the server normalizes it.
func resultKeyOf(t testing.TB, respBody []byte, region engine.Rect, budget float64) middleware.ResultKey {
	t.Helper()
	var resp middleware.Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatal(err)
	}
	return middleware.ResultKey{
		SQL:    resp.Trace.RewrittenSQL,
		Kind:   resp.Kind,
		GridW:  resp.GridW,
		GridH:  resp.GridH,
		Region: region,
		Budget: budget,
	}
}

// routedTo reports which replica absorbed the latest requests (by routed
// counter delta between two snapshots).
func routedTo(t testing.TB, before, after Snapshot) int {
	t.Helper()
	idx, n := -1, int64(0)
	for i := range after.Replicas {
		if d := after.Replicas[i].Routed - before.Replicas[i].Routed; d > 0 {
			idx, n = i, d
		}
	}
	if idx < 0 {
		t.Fatal("no replica absorbed the request")
	}
	_ = n
	return idx
}

// TestClusterByteIdenticalToGateway is the PR's determinism guarantee: an
// R-replica cluster behind the routing tier answers byte-identically to a
// single standalone gateway, per request shape, including under concurrent
// traffic that exercises routing, the peer caches, and per-replica
// admission. Run with -race.
func TestClusterByteIdenticalToGateway(t *testing.T) {
	c := newTestCluster(t, 3)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	gw := newTestGateway(t)
	gs := httptest.NewServer(gw.Handler())
	defer gs.Close()

	type reqShape struct {
		dataset string
		body    []byte
	}
	shapes := make([]reqShape, 0, 12)
	for i := 0; i < 6; i++ {
		shapes = append(shapes,
			reqShape{"twitter", twitterBody(fmt.Sprintf("word%04d", 3+i))},
			reqShape{"taxi", taxiBody(1 + i)},
		)
	}

	const goroutines = 16
	const perG = 4
	got := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([][]byte, perG)
			for i := 0; i < perG; i++ {
				sh := shapes[(w*perG+i*7)%len(shapes)]
				out[i] = postOK(t, cs.URL+"/viz?dataset="+sh.dataset, sh.body)
			}
			got[w] = out
		}(w)
	}
	wg.Wait()

	for w := 0; w < goroutines; w++ {
		for i := 0; i < perG; i++ {
			sh := shapes[(w*perG+i*7)%len(shapes)]
			want := postOK(t, gs.URL+"/viz?dataset="+sh.dataset, sh.body)
			if !bytes.Equal(got[w][i], want) {
				t.Errorf("w=%d i=%d dataset=%s: cluster response diverges from single gateway\n got %s\nwant %s",
					w, i, sh.dataset, got[w][i], want)
			}
		}
	}

	// Shapes concentrate: requests repeat each shape many times, so
	// cluster-wide misses stay near the number of distinct shapes (the
	// router pins each shape to one replica; with fragmented caches,
	// misses would scale with replicas). Not exactly equal: result-cache
	// fills are not single-flighted, so two concurrent first requests for
	// one shape can both miss before either stores — allow one extra miss
	// per worker for those races while still failing on real
	// fragmentation (3 replicas x 12 shapes = 36).
	snap := c.Snapshot()
	if maxMisses := int64(len(shapes) + goroutines); snap.ResultMisses > maxMisses {
		t.Errorf("cluster-wide result misses = %d, want <= %d (%d shapes + races)",
			snap.ResultMisses, maxMisses, len(shapes))
	}
	if snap.ResultHits == 0 {
		t.Error("cluster served no result-cache hits")
	}
}

// TestRouterDeterministicRouting: equal request shapes route to the same
// replica every time, and a body the server cannot key is routed by the hash
// of its dataset and bytes — equal bodies to one replica, the key's first
// live replica.
func TestRouterDeterministicRouting(t *testing.T) {
	c := newTestCluster(t, 4)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	body := twitterBody("word0009")
	before := c.Snapshot()
	for i := 0; i < 3; i++ {
		postOK(t, cs.URL+"/viz?dataset=twitter", body)
	}
	after := c.Snapshot()
	var absorbed []int
	for i := range after.Replicas {
		if d := after.Replicas[i].Routed - before.Replicas[i].Routed; d > 0 {
			absorbed = append(absorbed, i)
			if d != 3 {
				t.Errorf("replica %d absorbed %d of 3 identical requests", i, d)
			}
		}
	}
	if len(absorbed) != 1 {
		t.Errorf("identical requests spread over replicas %v, want exactly one", absorbed)
	}

	// An unparseable timestamp: no server can key it, so the body hash
	// routes it, and every copy lands on (and is refused by) one replica.
	bad := []byte(`{"keyword":"w","from":"not-a-time","budget_ms":500}`)
	key, unified := c.Router().routeHash("twitter", bad)
	if unified || key != hash64("twitter\x00"+string(bad)) {
		t.Fatalf("routeHash = (%#x, unified=%v), want the body hash %#x", key, unified, hash64("twitter\x00"+string(bad)))
	}
	if other, _ := c.Router().routeHash("taxi", bad); other == key {
		t.Error("different datasets produced the same body hash")
	}
	want := c.Router().attemptOrder(key)[0]
	before = c.Snapshot()
	for i := 0; i < 3; i++ {
		if code, _, msg := post(t, cs.URL+"/viz?dataset=twitter", bad); code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", code, msg)
		}
	}
	after = c.Snapshot()
	if d := after.Replicas[want].Routed - before.Replicas[want].Routed; d != 3 {
		t.Errorf("replica %d absorbed %d of 3 identical unkeyable bodies", want, d)
	}
	if d := after.KeyedFallback - before.KeyedFallback; d != 3 {
		t.Errorf("body-hash routed requests = %d, want 3", d)
	}
}

// TestClusterFailoverToLocalCompute: with the routed replica down, the ring
// sequence absorbs the request on a live replica, which serves it (peer
// fetch or local compute) byte-identically — the owner being dead costs
// latency, never correctness. Run with -race.
func TestClusterFailoverToLocalCompute(t *testing.T) {
	c := newTestCluster(t, 2)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()
	gw := newTestGateway(t)
	gs := httptest.NewServer(gw.Handler())
	defer gs.Close()

	body := twitterBody("word0011")
	before := c.Snapshot()
	want := postOK(t, gs.URL+"/viz?dataset=twitter", body)
	if got := postOK(t, cs.URL+"/viz?dataset=twitter", body); !bytes.Equal(got, want) {
		t.Fatal("pre-failover response diverges from single gateway")
	}
	owner := routedTo(t, before, c.Snapshot())
	other := 1 - owner

	c.Node(owner).SetDown(true)
	got := postOK(t, cs.URL+"/viz?dataset=twitter", body)
	if !bytes.Equal(got, want) {
		t.Errorf("failover response diverges from single gateway\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.Replicas[other].Failovers == 0 {
		t.Error("surviving replica absorbed no failovers")
	}

	// Health reflects the degraded state.
	hr, err := http.Get(cs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", health.Status)
	}

	// Both replicas down: 503, not a hang.
	c.Node(other).SetDown(true)
	code, _, _ := post(t, cs.URL+"/viz?dataset=twitter", body)
	if code != http.StatusServiceUnavailable {
		t.Errorf("all-down status = %d, want 503", code)
	}
	c.Node(owner).SetDown(false)
	c.Node(other).SetDown(false)
	if got := postOK(t, cs.URL+"/viz?dataset=twitter", body); !bytes.Equal(got, want) {
		t.Error("post-recovery response diverges")
	}
}

// TestClusterPeerFetchServesNonOwner: one cold execution fills the whole
// cluster — after a key's owning replica holds the result, any other
// replica answers the same shape from a peer fetch (result-cache hit, no
// second execution), byte-identically.
func TestClusterPeerFetchServesNonOwner(t *testing.T) {
	c := newTestCluster(t, 2)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	// Unified key space: the router routes by the server-normalized
	// ResultKey hash, so the routed replica IS the key's owner — the
	// routed replica is the only replica holding the result,
	// deterministically (no async fill in flight to race with).
	body := twitterBody("word0020")
	before := c.Snapshot()
	want := postOK(t, cs.URL+"/viz?dataset=twitter", body)
	owner := routedTo(t, before, c.Snapshot())
	key := resultKeyOf(t, want, workload.USExtent, 500)
	if ringOwner := c.Ring().Owner(key.Hash()); ringOwner != owner {
		t.Fatalf("routed replica %d does not own its result key (owner %d): unified routing broken", owner, ringOwner)
	}

	nonOwner := 1 - owner
	nodeURL := httptest.NewServer(c.Node(nonOwner).Handler())
	defer nodeURL.Close()

	beforeStats := c.Node(nonOwner).CacheSnapshot()
	code, hdr, got := post(t, nodeURL.URL+"/viz?dataset=twitter", body)
	if code != http.StatusOK {
		t.Fatalf("non-owner status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("peer-fetched response diverges\n got %s\nwant %s", got, want)
	}
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("X-Cache = %q, want hit (peer fetch is a cache hit)", hdr.Get("X-Cache"))
	}
	afterStats := c.Node(nonOwner).CacheSnapshot()
	if afterStats.PeerHits-beforeStats.PeerHits != 1 {
		t.Errorf("peer hits delta = %d, want 1", afterStats.PeerHits-beforeStats.PeerHits)
	}

	// The peer hit was copied into the non-owner's local cache: a repeat is
	// a local hit, no second peer round trip.
	_, hdr, got2 := post(t, nodeURL.URL+"/viz?dataset=twitter", body)
	if !bytes.Equal(got2, want) || hdr.Get("X-Cache") != "hit" {
		t.Error("repeat on non-owner not served as a hit")
	}
	finalStats := c.Node(nonOwner).CacheSnapshot()
	if finalStats.PeerHits != afterStats.PeerHits {
		t.Error("repeat on non-owner paid a second peer fetch")
	}
	if finalStats.LocalHits-afterStats.LocalHits != 1 {
		t.Errorf("local hits delta = %d, want 1", finalStats.LocalHits-afterStats.LocalHits)
	}
}

// TestClusterFillMigratesToOwner: when a replica computes a result it does
// not own (direct node traffic, bypassing the router — unified routing
// means routed traffic always lands on the owner), the asynchronous fill
// delivers it to the owner, so the canonical copy ends up where future
// peer fetches look.
func TestClusterFillMigratesToOwner(t *testing.T) {
	c := newTestCluster(t, 2)
	ns := httptest.NewServer(c.Node(0).Handler())
	defer ns.Close()

	// Hit replica 0 directly until a shape whose result key replica 1 owns
	// computes there: that Put must enqueue a fill toward the owner.
	for i := 0; i < 40; i++ {
		b := twitterBody(fmt.Sprintf("word%04d", 60+i))
		resp := postOK(t, ns.URL+"/viz?dataset=twitter", b)
		key := resultKeyOf(t, resp, workload.USExtent, 500)
		owner := c.Ring().Owner(key.Hash())
		if owner == 0 {
			continue // replica 0 owns it; the Put stays local, no fill
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, ok := c.Node(owner).fetchLocal("twitter", key); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("fill never reached the owner")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := c.Node(owner).CacheSnapshot().FillsReceived; got < 1 {
			t.Errorf("owner fills received = %d, want >= 1", got)
		}
		if got := c.Node(0).CacheSnapshot().FillsSent; got < 1 {
			t.Errorf("computing replica fills sent = %d, want >= 1", got)
		}
		return
	}
	t.Fatal("no shape found whose result key replica 1 owns (40 tried)")
}

// TestFlightGroupCoalesces: concurrent fetches for one key cross the wire
// once; everyone shares the answer.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	key := middleware.ResultKey{SQL: "SELECT 1", Budget: 500}
	resp := &middleware.Response{Kind: middleware.VizHeatmap}

	gate := make(chan struct{})
	var runs, shared atomic.Int64
	const callers = 8
	var started, wg sync.WaitGroup
	started.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			started.Done()
			r, ok, err, wasShared := g.do(key, func() (*middleware.Response, bool, error) {
				runs.Add(1)
				<-gate
				return resp, true, nil
			})
			if err != nil || !ok || r != resp {
				t.Errorf("do = (%v, %v, %v)", r, ok, err)
			}
			if wasShared {
				shared.Add(1)
			}
		}()
	}
	started.Wait()
	time.Sleep(50 * time.Millisecond) // let the stragglers reach do()
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("fetch ran %d times, want 1", runs.Load())
	}
	if shared.Load() != callers-1 {
		t.Errorf("shared = %d, want %d", shared.Load(), callers-1)
	}

	// Distinct keys do not coalesce.
	other := middleware.ResultKey{SQL: "SELECT 2", Budget: 500}
	_, _, _, wasShared := g.do(other, func() (*middleware.Response, bool, error) { return nil, false, nil })
	if wasShared {
		t.Error("distinct key reported shared")
	}
}

// TestSharedRewriterFactoryOnce: an R-replica cluster builds each dataset's
// rewriter once, not R times.
func TestSharedRewriterFactoryOnce(t *testing.T) {
	ds := testDatasets(t)
	var calls atomic.Int64
	counting := func(name string, d *workload.Dataset) (core.Rewriter, error) {
		calls.Add(1)
		return core.OracleRewriter{}, nil
	}
	c, err := New(Config{
		Replicas: 3,
		Names:    []string{"twitter", "taxi"},
		Datasets: ds,
		Factory:  counting,
		Server:   middleware.ServerConfig{DefaultBudgetMs: 500},
		Space:    core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := calls.Load(); got != 2 {
		t.Errorf("factory ran %d times for 2 datasets x 3 replicas, want 2", got)
	}
}

// TestHTTPPeerRoundTrip: the HTTP peer transport round-trips responses
// bit-identically (fetch hit, clean miss, and fill), so one-process-per-
// replica clusters inherit the byte-identity guarantee.
func TestHTTPPeerRoundTrip(t *testing.T) {
	c := newTestCluster(t, 1)
	node := c.Node(0)
	ns := httptest.NewServer(node.Handler())
	defer ns.Close()

	node.SetPeerSecret("hunter2")
	body := twitterBody("word0031")
	want := postOK(t, ns.URL+"/viz?dataset=twitter", body)
	key := resultKeyOf(t, want, workload.USExtent, 500)

	// Wrong (or missing) secret: the peer surface refuses both reads and
	// writes — an open fill endpoint would let anyone poison the cache.
	ctx := context.Background()
	intruder := NewHTTPPeer(ns.URL, "")
	if _, ok, err := intruder.FetchResult(ctx, "twitter", key); ok || err == nil {
		t.Errorf("unauthenticated fetch = (ok=%v, err=%v), want rejection", ok, err)
	}
	if err := intruder.FillResult(ctx, "twitter", key, &middleware.Response{}); err == nil {
		t.Error("unauthenticated fill accepted")
	}

	peer := NewHTTPPeer(ns.URL, "hunter2")
	resp, ok, err := peer.FetchResult(ctx, "twitter", key)
	if err != nil || !ok {
		t.Fatalf("fetch = (ok=%v, err=%v), want hit", ok, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("re-encoded peer fetch diverges from served bytes\n got %s\nwant %s", buf.Bytes(), want)
	}

	missKey := key
	missKey.SQL = "SELECT nothing"
	if _, ok, err := peer.FetchResult(ctx, "twitter", missKey); ok || err != nil {
		t.Errorf("miss fetch = (ok=%v, err=%v), want clean miss", ok, err)
	}

	if err := peer.FillResult(ctx, "twitter", missKey, resp); err != nil {
		t.Fatal(err)
	}
	if refetched, ok, _ := peer.FetchResult(ctx, "twitter", missKey); !ok || refetched == nil {
		t.Error("filled key not fetchable")
	}

	// A dead peer errors out fast instead of hanging.
	ns.Close()
	if _, _, err := peer.FetchResult(ctx, "twitter", key); err == nil {
		t.Error("fetch against a closed peer succeeded")
	}
}
