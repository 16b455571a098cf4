package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// TestClusterCloseReleasesGoroutines: Close stops everything New and its
// traffic started — every replica's fill worker, its gateway's session
// observer and prefetch goroutines, its ingest batchers — so the goroutine
// count settles back to where it was before the cluster existed.
func TestClusterCloseReleasesGoroutines(t *testing.T) {
	ds := testDatasets(t) // built before the baseline is taken
	baseline := runtime.NumGoroutine()
	c, err := New(Config{
		Replicas: 3,
		Names:    []string{"twitter", "taxi"},
		Datasets: ds,
		Factory:  middleware.OracleFactory,
		Server:   middleware.ServerConfig{DefaultBudgetMs: 500},
		Space:    core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	for i := 0; i < 20; i++ {
		r := httptest.NewRequest(http.MethodPost, "/viz?dataset=twitter", bytes.NewReader(twitterBody(fmt.Sprintf("word%04d", i%5))))
		r.Header.Set(middleware.SessionHeader, fmt.Sprintf("session-%d", i%2))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// silentPeer is a dead peer: every call hangs for delay (or until its
// context ends) and then fails with a timeout.
type silentPeer struct{ delay time.Duration }

func (p silentPeer) FetchResult(ctx context.Context, _ string, _ middleware.ResultKey) (*middleware.Response, bool, error) {
	select {
	case <-ctx.Done():
	case <-time.After(p.delay):
	}
	return nil, false, context.DeadlineExceeded
}

func (silentPeer) FillResult(context.Context, string, middleware.ResultKey, *middleware.Response) error {
	return context.DeadlineExceeded
}

// TestClusterHedgedFetchRacesNextReplica: when a key's owner goes silent
// (the fetch hangs for 40 ms, then times out), the hedge leg asks the next
// ring replica and wins the race, serving the cached result byte-identically
// instead of stalling for the full peer timeout.
func TestClusterHedgedFetchRacesNextReplica(t *testing.T) {
	c := newTestCluster(t, 3)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	// Seed the cluster with one served response and locate its key's owner.
	body := twitterBody("word0050")
	before := c.Snapshot()
	want := postOK(t, cs.URL+"/viz", body)
	owner := routedTo(t, before, c.Snapshot())
	key := resultKeyOf(t, want, workload.USExtent, 500)
	if ringOwner := c.Ring().Owner(key.Hash()); ringOwner != owner {
		t.Fatalf("routed to %d but ring owner is %d — unified routing broken", owner, ringOwner)
	}

	// Cast the race: seq = [owner, asker, target]. The asker's fetch to the
	// owner is dropped; the target holds a copy of the result.
	seq := c.Ring().Sequence(key.Hash())
	asker, target := seq[1], seq[2]
	var resp middleware.Response
	if err := json.Unmarshal(want, &resp); err != nil {
		t.Fatal(err)
	}
	c.Node(target).fillLocal("twitter", key, &resp)

	peers := make([]PeerClient, 3)
	for j := 0; j < 3; j++ {
		if j != asker {
			peers[j] = localPeer{node: c.Node(j)}
		}
	}
	peers[owner] = silentPeer{delay: 40 * time.Millisecond}
	c.Node(asker).SetPeers(peers, DefaultPeerTimeout)

	as := httptest.NewServer(c.Node(asker).Handler())
	defer as.Close()
	got := postOK(t, as.URL+"/viz", body)
	if !bytes.Equal(got, want) {
		t.Errorf("hedged response differs from the original:\n got %s\nwant %s", got, want)
	}
	st := c.Node(asker).CacheSnapshot()
	if st.HedgedFetches < 1 {
		t.Errorf("hedged fetches = %d, want >= 1", st.HedgedFetches)
	}
	if st.HedgeWins < 1 {
		t.Errorf("hedge wins = %d, want >= 1", st.HedgeWins)
	}
	if st.PeerHits < 1 {
		t.Errorf("peer hits = %d, want >= 1 (the hedge leg's hit)", st.PeerHits)
	}
}

// TestPeerTimeoutBoundsTheFetch: the peer timeout a node is given bounds
// its whole fetch race, so an owner slower than the 250 ms default but
// inside a 1 s timeout still answers from its cache instead of the asker
// giving up and counting locally.
func TestPeerTimeoutBoundsTheFetch(t *testing.T) {
	c := newTestCluster(t, 2)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	body := twitterBody("word0030")
	before := c.Snapshot()
	want := postOK(t, cs.URL+"/viz", body)
	owner := routedTo(t, before, c.Snapshot())
	asker := 1 - owner

	// The owner answers every peer request after 400 ms, over HTTP.
	const delay, timeout = 400 * time.Millisecond, time.Second
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		c.Node(owner).ServeHTTP(w, r)
	}))
	defer slow.Close()
	peers := make([]PeerClient, 2)
	peers[owner] = NewHTTPPeer(slow.URL, "")
	c.Node(asker).SetPeers(peers, timeout)

	as := httptest.NewServer(c.Node(asker).Handler())
	defer as.Close()
	if got := postOK(t, as.URL+"/viz", body); !bytes.Equal(got, want) {
		t.Errorf("response through the slow owner differs:\n got %s\nwant %s", got, want)
	}
	st := c.Node(asker).CacheSnapshot()
	if st.PeerHits != 1 || st.FetchTimeouts != 0 {
		t.Errorf("peer hits %d, fetch timeouts %d: want the owner's answer (1 hit, 0 timeouts)", st.PeerHits, st.FetchTimeouts)
	}
}

// TestRouterRetryAfterOnAllDown: the "no live replica" 503 carries
// Retry-After: 1, the same hint the gateway's own 503s give — the router
// reads replica state on every request, so a revived replica serves the
// retry.
func TestRouterRetryAfterOnAllDown(t *testing.T) {
	c := newTestCluster(t, 2)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	c.Kill(0)
	c.Kill(1)
	code, hdr, msg := post(t, cs.URL+"/viz", twitterBody("word0001"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, msg)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if !bytes.Contains(msg, []byte("no live replica")) {
		t.Errorf("body %q should name the condition", msg)
	}
	c.Revive(1)
	postOK(t, cs.URL+"/viz", twitterBody("word0001"))
}

// TestClusterDrainSemantics: a draining replica refuses new visualization
// traffic (with the draining sentinel) but keeps serving peer fetches and
// health checks, so its cache stays useful while it empties out.
func TestClusterDrainSemantics(t *testing.T) {
	c := newTestCluster(t, 2)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	// The routed tier keeps serving throughout the drain.
	_ = postOK(t, cs.URL+"/viz", twitterBody("word0060"))
	c.Drain(1)
	_ = postOK(t, cs.URL+"/viz", twitterBody("word0061"))

	ns := httptest.NewServer(c.Node(1).Handler())
	defer ns.Close()
	code, hdr, _ := post(t, ns.URL+"/viz", twitterBody("word0062"))
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining /viz status = %d, want 503", code)
	}
	if got := hdr.Get(ReplicaUnavailableHeader); got != "draining" {
		t.Errorf("sentinel = %q, want \"draining\"", got)
	}
	hres, err := http.Get(ns.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz status = %d, want 200 (health checks must still see it)", hres.StatusCode)
	}
	if c.Node(1).State() != StateDraining {
		t.Errorf("node state = %v, want draining", c.Node(1).State())
	}

	c.Rejoin(1)
	if c.Node(1).State() != StateLive {
		t.Errorf("after rejoin node state = %v, want live", c.Node(1).State())
	}
}

// TestClusterMembershipFlapping is the robustness satellite: 32 goroutines
// drive routed traffic while two of three replicas flap through
// kill/revive/drain/rejoin. No request may be lost — every response is
// either a 200 byte-identical to a standalone gateway's, or a clean 503 —
// and availability must hold at 99%: replica 0 never leaves, so every
// request has a live replica somewhere in its failover order. Run with -race.
func TestClusterMembershipFlapping(t *testing.T) {
	c := newTestCluster(t, 3)
	cs := httptest.NewServer(c.Handler())
	defer cs.Close()

	// Reference truth from a standalone gateway over the same datasets.
	bodies := make([][]byte, 0, 10)
	for i := 0; i < 8; i++ {
		bodies = append(bodies, twitterBody(fmt.Sprintf("word%04d", 40+i)))
	}
	bodies = append(bodies, taxiBody(1), taxiBody(3))
	gw := newTestGateway(t)
	gs := httptest.NewServer(gw.Handler())
	defer gs.Close()
	want := make(map[string][]byte, len(bodies))
	for _, b := range bodies {
		want[string(b)] = postOK(t, gs.URL+"/viz", b)
	}

	// Flapper: replica 0 stays live throughout; 1 and 2 cycle through the
	// lifecycle while the router reads their state.
	stopFlap := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopFlap:
				c.Revive(1)
				c.Rejoin(2)
				return
			default:
			}
			switch i % 4 {
			case 0:
				c.Kill(1)
			case 1:
				c.Drain(2)
			case 2:
				c.Revive(1)
			case 3:
				c.Rejoin(2)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	const workers = 32
	const perWorker = 12
	var ok200, ok503 atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				b := bodies[rng.Intn(len(bodies))]
				resp, err := http.Post(cs.URL+"/viz", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- fmt.Errorf("transport error: %w", err)
					continue
				}
				data, err := readAllAndClose(resp)
				if err != nil {
					errc <- err
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
					if !bytes.Equal(data, want[string(b)]) {
						errc <- fmt.Errorf("200 response diverged from the gateway for %s", b)
					}
				case http.StatusServiceUnavailable:
					ok503.Add(1)
				default:
					errc <- fmt.Errorf("status %d (lost request): %s", resp.StatusCode, data)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(stopFlap)
	flapWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	total := ok200.Load() + ok503.Load()
	if total != workers*perWorker {
		t.Errorf("accounted for %d of %d requests", total, workers*perWorker)
	}
	if ok200.Load()*100 < int64(workers*perWorker)*99 {
		t.Errorf("only %d/%d requests succeeded under flapping, want >= 99%%; replica 0 never left", ok200.Load(), total)
	}
	t.Logf("flapping: %d ok, %d unavailable, retries=%d failovers(total)=%d",
		ok200.Load(), ok503.Load(), c.Snapshot().Retries, totalFailovers(c.Snapshot()))
}

// readAllAndClose drains and closes a response body.
func readAllAndClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// totalFailovers sums the per-replica failover counters.
func totalFailovers(s Snapshot) int64 {
	var n int64
	for _, r := range s.Replicas {
		n += r.Failovers
	}
	return n
}
