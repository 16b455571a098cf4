package middleware

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// postViz sends one valid /viz request and returns the response.
func postViz(t *testing.T, url string, extra http.Header) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"keyword": "word0005",
		"from":    "2016-03-01T00:00:00Z",
		"to":      "2016-05-01T00:00:00Z",
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
		"kind": "heatmap", "grid_w": 8, "grid_h": 8, "budget_ms": 500,
	})
	req, err := http.NewRequest(http.MethodPost, url+"/viz", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPanicRecoveryHTTP: a panic inside the serving path becomes a 500 plus
// a counted recovery on the gateway — the process (and the next request)
// survive.
func TestPanicRecoveryHTTP(t *testing.T) {
	g, s := oneTwitterGateway(t)
	hsrv := httptest.NewServer(g.Handler())
	defer hsrv.Close()

	boom := true
	s.SetFaultHook(func(stage string) {
		if boom && stage == "viz" {
			panic("injected viz fault")
		}
	})
	resp := postViz(t, hsrv.URL, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", resp.StatusCode)
	}
	if got := g.gwMetrics.panicsSnapshot()["viz"]; got != 1 {
		t.Fatalf("panics[viz] = %d, want 1", got)
	}

	// The process survived: the very next request serves normally.
	boom = false
	resp = postViz(t, hsrv.URL, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request = %d, want 200", resp.StatusCode)
	}

	// The counter is exported with the handler label.
	mr, err := http.Get(hsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, rerr := mr.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), `maliva_gateway_panics_total{handler="viz"} 1`) {
		t.Fatalf("metrics missing panic series:\n%s", sb.String())
	}
}

// TestPanicRecoveryWorker: a panic on a worker goroutine (the gateway's
// session observer) is recovered and counted instead of killing the process,
// and the observer keeps processing later observations.
func TestPanicRecoveryWorker(t *testing.T) {
	cfg := workload.TwitterConfig()
	cfg.Rows = 4_000
	reg := workload.NewRegistry()
	if err := reg.Register("twitter", func() (*workload.Dataset, error) { return workload.Twitter(cfg) }); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, nil, GatewayConfig{Space: core.HintOnlySpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv, err := g.Server("twitter")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaultHook(func(stage string) {
		if stage == "observe" {
			panic("injected observer fault")
		}
	})

	hsrv := httptest.NewServer(g.Handler())
	defer hsrv.Close()
	hdr := http.Header{}
	hdr.Set(SessionHeader, "sess-1")
	resp := postViz(t, hsrv.URL, hdr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("viz = %d", resp.StatusCode)
	}

	// The observation is processed asynchronously; wait for the recovery.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.panicsSnapshot()["observe"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("observer panic never recovered/counted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The observer goroutine survived: with the fault cleared, another
	// session request is observed without incident and serving still works.
	srv.SetFaultHook(nil)
	resp = postViz(t, hsrv.URL, hdr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery viz = %d", resp.StatusCode)
	}
}

// TestServerDrainAndClose: draining flips /healthz to 503 "draining",
// rejects new /viz + /ingest with 503 and refuses Ingest on the dataset's
// Server; Close flushes buffered async rows so acknowledged writes are
// applied before shutdown completes.
func TestServerDrainAndClose(t *testing.T) {
	g, s := oneTwitterGateway(t)
	hsrv := httptest.NewServer(g.Handler())
	defer hsrv.Close()

	// Buffer a few async rows, then drain.
	stream, err := workload.NewIngestStream(s.DS, 11)
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.DataVersion()
	rows := stream.Next(8)
	if _, err := s.Ingest(rows, false); err != nil {
		t.Fatal(err)
	}
	g.Drain()
	if _, err := s.Ingest(rows, false); !errors.Is(err, ErrDraining) {
		t.Fatalf("Ingest on a drained server: err = %v, want ErrDraining", err)
	}

	hr, err := http.Get(hsrv.URL + "/healthz")
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
	if hr.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz = %d %q, want 503 draining", hr.StatusCode, health.Status)
	}

	resp := postViz(t, hsrv.URL, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /viz = %d, want 503", resp.StatusCode)
	}
	ib, _ := json.Marshal(httpIngest{Rows: rows, Sync: true})
	iresp, err := http.Post(hsrv.URL+"/ingest", "application/json", bytes.NewReader(ib))
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /ingest = %d, want 503", iresp.StatusCode)
	}
	if got := g.gwMetrics.drainRejected.Load(); got != 2 {
		t.Fatalf("drainRejected = %d, want 2", got)
	}

	// Close honors the async ack contract: every accepted row is applied —
	// whether the adaptive flusher beat us to it or Close's final flush did.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Ingestor().Pending() != 0 {
		t.Fatalf("Close left %d rows buffered", s.Ingestor().Pending())
	}
	if s.DataVersion() == v0 {
		t.Fatal("accepted rows never applied")
	}
	total, _ := s.Ingestor().Totals()
	if total != int64(len(rows)) {
		t.Fatalf("applied rows = %d, want %d", total, len(rows))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPrefetchAfterDrainComputesNothing: speculative work is refused once
// the server drains — nothing is computed or cached for it.
func TestPrefetchAfterDrainComputesNothing(t *testing.T) {
	s := testServer(t)
	s.Drain()
	s.Prefetch(validRequest())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.prefetchComputed.Load(); got != 0 {
		t.Fatalf("prefetchComputed = %d after Drain, want 0", got)
	}
}

// TestCloseWaitsForPrefetch: an admitted prefetch still running (held in the
// "prefetch" fault hook) keeps Gateway.Close — and the dataset Server's
// Close under it — from returning until it finishes, so no speculative
// execution outlives the server it runs against.
func TestCloseWaitsForPrefetch(t *testing.T) {
	reg := workload.NewRegistry()
	if err := reg.Register("twitter", tinyTwitterBuilder(8_000)); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, OracleFactory, GatewayConfig{Space: core.HintOnlySpec()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := g.Server("twitter")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}, 8), make(chan struct{})
	srv.SetFaultHook(func(stage string) {
		if stage == "prefetch" {
			entered <- struct{}{}
			<-release
		}
	})

	// One session-tagged request: the observer predicts the parent tile and
	// hands it to Prefetch, whose goroutine parks in the fault hook.
	r := httptest.NewRequest(http.MethodPost, "/viz", bytes.NewReader(vizBody(t, sessReq(srv.DS.Extent, 4, 3, 8))))
	r.Header.Set(SessionHeader, "sess-close")
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("viz = %d: %s", rec.Code, rec.Body)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no prefetch was ever admitted")
	}

	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted prefetch was still running")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the prefetch finished")
	}
}

// TestClosedServerIsCollected: a closed server over a dataset that outlives
// it becomes garbage once dropped — its DB flush hook no longer pins it, and
// with it every plan, result, and lookup cache it filled.
func TestClosedServerIsCollected(t *testing.T) {
	ds := testServer(t).DS
	s, err := NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(validRequest()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wp := weak.Make(s)
	s = nil
	for i := 0; i < 5 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("closed server is still reachable from its dataset")
	}
	runtime.KeepAlive(ds) // the dataset outlives the server
}

// TestCancelAbortsExecution: a dead request context stops a result-cache
// miss before it counts — the error is ErrCanceled and the counter records
// it — whether the miss builds its plan or finds it in the plan cache. A live
// context on the same shape still serves.
func TestCancelAbortsExecution(t *testing.T) {
	s := testServer(t)
	hitServer, err := NewServerWithConfig(s.DS, core.OracleRewriter{}, core.HintOnlySpec(),
		ServerConfig{DefaultBudgetMs: 500, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := validRequest()
	// Warm hitServer's plan cache; with no result cache the next request for
	// the shape is a plan hit that misses the result cache.
	if _, err := hitServer.ResultKeyFor(req); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		s    *Server
	}{{"plan build", s}, {"plan hit", hitServer}} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the client is already gone when the miss is served
		_, _, err := tc.s.handle(ctx, req, false)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", tc.name, err)
		}
		if got := tc.s.metrics.execCanceled.Load(); got == 0 {
			t.Fatalf("%s: execCanceled counter not incremented", tc.name)
		}
		if got := tc.s.metrics.planHits.Load(); (got > 0) != (tc.s == hitServer) {
			t.Fatalf("%s: %d plan-cache hits", tc.name, got)
		}

		// Nothing was cached for the canceled request; a live retry serves
		// normally.
		resp, src, err := tc.s.handle(context.Background(), req, false)
		if err != nil || resp == nil {
			t.Fatalf("%s: retry after cancel: source=%d err=%v", tc.name, src, err)
		}
		if len(resp.Bins) == 0 {
			t.Fatalf("%s: retry served empty heatmap", tc.name)
		}
	}
}

// TestGatewayDrain: a draining gateway rejects new work at the gateway
// level, reports 503 "draining" on the health rollup and on every
// per-dataset probe, and drains every dataset server underneath.
func TestGatewayDrain(t *testing.T) {
	cfg := workload.TwitterConfig()
	cfg.Rows = 4_000
	reg := workload.NewRegistry()
	if err := reg.Register("twitter", func() (*workload.Dataset, error) { return workload.Twitter(cfg) }); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, nil, GatewayConfig{Space: core.HintOnlySpec()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := g.Server("twitter")
	if err != nil {
		t.Fatal(err)
	}
	g.Drain()
	if !srv.Draining() {
		t.Fatal("gateway drain did not drain the dataset server")
	}

	hsrv := httptest.NewServer(g.Handler())
	defer hsrv.Close()
	hr, err := http.Get(hsrv.URL + "/healthz")
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
	if hr.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("rollup healthz = %d %q, want 503 draining", hr.StatusCode, health.Status)
	}
	// A load balancer probing one dataset must fail over too.
	pr, err := http.Get(hsrv.URL + "/healthz?dataset=twitter")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(pr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("per-dataset healthz = %d %q, want 503 draining", pr.StatusCode, health.Status)
	}
	resp := postViz(t, hsrv.URL, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining gateway /viz = %d, want 503", resp.StatusCode)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
