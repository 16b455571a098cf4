package middleware

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// tinyTwitterBuilder returns a deterministic small-Twitter builder.
func tinyTwitterBuilder(rows int) func() (*workload.Dataset, error) {
	cfg := workload.TwitterConfig()
	cfg.Rows = rows
	cfg.Scale = 100e6 / float64(cfg.Rows)
	return func() (*workload.Dataset, error) { return workload.Twitter(cfg) }
}

// tinyTaxiBuilder returns a deterministic small-Taxi builder.
func tinyTaxiBuilder(rows int) func() (*workload.Dataset, error) {
	cfg := workload.TaxiConfig()
	cfg.Rows = rows
	cfg.Scale = 500e6 / float64(cfg.Rows)
	return func() (*workload.Dataset, error) { return workload.Taxi(cfg) }
}

// testGateway builds a warm two-dataset gateway over tiny Twitter + Taxi.
func testGateway(t testing.TB) *Gateway {
	t.Helper()
	reg := workload.NewRegistry()
	if err := reg.Register("twitter", tinyTwitterBuilder(8_000)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("taxi", tinyTaxiBuilder(8_000)); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, OracleFactory, GatewayConfig{
		Server: ServerConfig{DefaultBudgetMs: 500},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Warm(); err != nil {
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

// taxiBody is a valid request body against the Taxi dataset (no keyword —
// trips have no text column).
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

// TestGatewayRoutesDatasets: both datasets answer through one gateway, the
// default dataset serves naked /viz.
func TestGatewayRoutesDatasets(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	post := func(path string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}

	resp, data := post("/viz?dataset=twitter", twitterBody("word0005"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("twitter viz = %d: %s", resp.StatusCode, data)
	}
	resp, data = post("/viz?dataset=taxi", taxiBody(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("taxi viz = %d: %s", resp.StatusCode, data)
	}
	var out Response
	if err := json.Unmarshal(data, &out); err != nil || len(out.Bins) == 0 {
		t.Fatalf("taxi response unusable (err=%v): %s", err, data)
	}

	// Default dataset (first registered = twitter) serves naked /viz.
	resp, data = post("/viz", twitterBody("word0005"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default viz = %d: %s", resp.StatusCode, data)
	}
}

// TestGatewayUnknownDataset: a dataset name the registry doesn't know is a
// 404 on every routed endpoint.
func TestGatewayUnknownDataset(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/viz?dataset=nope", "application/json", bytes.NewReader(twitterBody("word0005")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("viz unknown dataset = %d, want 404", resp.StatusCode)
	}
	hr, err := http.Get(srv.URL + "/healthz?dataset=nope")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Errorf("healthz unknown dataset = %d, want 404", hr.StatusCode)
	}
	if got := g.Snapshot().Gateway.UnknownDataset; got != 1 {
		t.Errorf("UnknownDataset counter = %d, want 1", got)
	}
}

// TestGatewayWarmingDataset: requests while the dataset builds get 503 with
// Retry-After; once the build finishes they get 200.
func TestGatewayWarmingDataset(t *testing.T) {
	reg := workload.NewRegistry()
	gate := make(chan struct{})
	inner := tinyTwitterBuilder(8_000)
	if err := reg.Register("slow", func() (*workload.Dataset, error) { <-gate; return inner() }); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, OracleFactory, GatewayConfig{
		Server: ServerConfig{DefaultBudgetMs: 500},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/viz?dataset=slow", "application/json", bytes.NewReader(twitterBody("word0005")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming viz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("warming rejection carries no Retry-After")
	}

	// /datasets and /healthz report the warming state.
	dr, err := http.Get(srv.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []datasetInfo
	if err := json.NewDecoder(dr.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if len(infos) != 1 || infos[0].Status != "warming" {
		t.Errorf("datasets while warming = %+v", infos)
	}

	close(gate)
	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/viz?dataset=slow", "application/json", bytes.NewReader(twitterBody("word0005")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("post-warm status = %d", resp.StatusCode)
		}
		select {
		case <-deadline:
			t.Fatal("dataset never finished warming")
		case <-time.After(20 * time.Millisecond):
		}
	}
	if got := g.Snapshot().Gateway.Warming; got < 1 {
		t.Errorf("Warming counter = %d, want >= 1", got)
	}
}

// TestGatewaySingleFlightFirstTouch: a stampede of concurrent first-touch
// requests builds the dataset and its rewriter exactly once.
func TestGatewaySingleFlightFirstTouch(t *testing.T) {
	reg := workload.NewRegistry()
	var builds, factories atomic.Int32
	inner := tinyTwitterBuilder(8_000)
	if err := reg.Register("tw", func() (*workload.Dataset, error) {
		builds.Add(1)
		return inner()
	}); err != nil {
		t.Fatal(err)
	}
	factory := func(name string, ds *workload.Dataset) (core.Rewriter, error) {
		factories.Add(1)
		return core.OracleRewriter{}, nil
	}
	g, err := NewGateway(reg, factory, GatewayConfig{
		Server: ServerConfig{DefaultBudgetMs: 500},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/viz?dataset=tw", "application/json", bytes.NewReader(twitterBody("word0005")))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if _, err := g.Server("tw"); err != nil { // block until built
		t.Fatal(err)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("dataset built %d times, want 1", got)
	}
	if got := factories.Load(); got != 1 {
		t.Errorf("rewriter factory ran %d times, want 1", got)
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS — and so Warm's pool width — set
// to workers, restoring it afterwards. (No middleware test runs in
// parallel, so the process-wide setting is the test's own.)
func withGOMAXPROCS(t *testing.T, workers int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		fn(t)
	})
}

// TestGatewayWarmBoundedPool: Warm fans dataset builds out on the bounded
// worker pool — every dataset still builds exactly once (even when Warm
// races with request-driven first touches and a repeated Warm), at one
// worker and at two, and all end up ready.
func TestGatewayWarmBoundedPool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withGOMAXPROCS(t, workers, func(t *testing.T) {
			reg := workload.NewRegistry()
			var twBuilds, txBuilds atomic.Int32
			tw, tx := tinyTwitterBuilder(4_000), tinyTaxiBuilder(4_000)
			if err := reg.Register("twitter", func() (*workload.Dataset, error) {
				twBuilds.Add(1)
				return tw()
			}); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register("taxi", func() (*workload.Dataset, error) {
				txBuilds.Add(1)
				return tx()
			}); err != nil {
				t.Fatal(err)
			}
			g, err := NewGateway(reg, OracleFactory, GatewayConfig{
				Server: ServerConfig{DefaultBudgetMs: 500},
				Space:  core.HintOnlySpec(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // request-driven first touch racing the warmup
				defer wg.Done()
				if _, err := g.Server("taxi"); err != nil {
					t.Error(err)
				}
			}()
			go func() { // concurrent second Warm must not rebuild anything
				defer wg.Done()
				if err := g.Warm(); err != nil {
					t.Error(err)
				}
			}()
			if err := g.Warm(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			for _, name := range []string{"twitter", "taxi"} {
				if st, _ := g.status(name); st != workload.StatusReady {
					t.Errorf("dataset %s is %s after Warm, want ready", name, st)
				}
			}
			if got := twBuilds.Load(); got != 1 {
				t.Errorf("twitter built %d times, want 1", got)
			}
			if got := txBuilds.Load(); got != 1 {
				t.Errorf("taxi built %d times, want 1", got)
			}
		})
	}
}

// TestGatewayWarmFailureDoesNotStrand: a failing build must not abandon the
// other datasets' claimed entries — serial warmup (one worker) was the
// dangerous case, where an early error could leave later entries with a
// never-closing done channel (permanent 503s and a deadlocked re-Warm).
func TestGatewayWarmFailureDoesNotStrand(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withGOMAXPROCS(t, workers, func(t *testing.T) {
			reg := workload.NewRegistry()
			if err := reg.Register("broken", func() (*workload.Dataset, error) {
				return nil, fmt.Errorf("synthetic build failure")
			}); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register("taxi", tinyTaxiBuilder(4_000)); err != nil {
				t.Fatal(err)
			}
			g, err := NewGateway(reg, OracleFactory, GatewayConfig{
				Server: ServerConfig{DefaultBudgetMs: 500},
				Space:  core.HintOnlySpec(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Warm(); err == nil || !strings.Contains(err.Error(), "broken") {
				t.Fatalf("Warm error = %v, want broken-dataset failure", err)
			}
			// The healthy dataset must have been built despite the failure…
			if st, _ := g.status("taxi"); st != workload.StatusReady {
				t.Errorf("taxi is %s after failed Warm, want ready", st)
			}
			// …and a retry must terminate (it would deadlock on a stranded
			// entry), still reporting the cached failure.
			done := make(chan error, 1)
			go func() { done <- g.Warm() }()
			select {
			case err := <-done:
				if err == nil {
					t.Error("retried Warm = nil, want cached failure")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("retried Warm deadlocked")
			}
		})
	}
}

// TestGatewayByteIdenticalToServer is the PR's determinism guarantee: for
// the same requests, a Gateway response body is byte-identical to the one
// the equivalent standalone single-dataset Server produces — per dataset,
// including under concurrent gateway traffic. Run with -race.
func TestGatewayByteIdenticalToServer(t *testing.T) {
	g := testGateway(t)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Standalone single-dataset servers over identically-generated datasets.
	standalone := make(map[string]*httptest.Server)
	for name, build := range map[string]func() (*workload.Dataset, error){
		"twitter": tinyTwitterBuilder(8_000),
		"taxi":    tinyTaxiBuilder(8_000),
	} {
		ds, err := build()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(), ServerConfig{DefaultBudgetMs: 500})
		if err != nil {
			t.Fatal(err)
		}
		standalone[name] = httptest.NewServer(s.Handler())
		defer standalone[name].Close()
	}

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

	post := func(url string, body []byte) []byte {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Concurrent pass through the gateway (exercises the sharded caches and
	// the shared admission pool under -race), then a serial replay against
	// the standalone servers.
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
				out[i] = post(gw.URL+"/viz?dataset="+sh.dataset, sh.body)
			}
			got[w] = out
		}(w)
	}
	wg.Wait()

	for w := 0; w < goroutines; w++ {
		for i := 0; i < perG; i++ {
			sh := shapes[(w*perG+i*7)%len(shapes)]
			want := post(standalone[sh.dataset].URL+"/viz", sh.body)
			if !bytes.Equal(got[w][i], want) {
				t.Errorf("w=%d i=%d dataset=%s: gateway response diverges from standalone server\n got %s\nwant %s",
					w, i, sh.dataset, got[w][i], want)
			}
		}
	}
}

// TestGatewayMetricsRollup: /metrics aggregates per-dataset series with
// dataset labels, and ?format=json returns the structured snapshot.
func TestGatewayMetricsRollup(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	for _, q := range []string{"?dataset=twitter", "?dataset=taxi"} {
		body := twitterBody("word0005")
		if strings.Contains(q, "taxi") {
			body = taxiBody(2)
		}
		resp, err := http.Post(srv.URL+"/viz"+q, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"maliva_gateway_requests_total 2",
		`maliva_requests_total{dataset="twitter"} 1`,
		`maliva_requests_total{dataset="taxi"} 1`,
		`maliva_responses_total{dataset="twitter",code="2xx"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics rollup missing %q\n%s", want, text)
		}
	}

	jr, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap GatewayMetricsSnapshot
	if err := json.NewDecoder(jr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if snap.Gateway.Requests != 2 {
		t.Errorf("gateway requests = %d, want 2", snap.Gateway.Requests)
	}
	if snap.Datasets["twitter"].Requests != 1 || snap.Datasets["taxi"].Requests != 1 {
		t.Errorf("per-dataset requests = %+v", snap.Datasets)
	}

	// Per-dataset metrics endpoint carries the label too.
	pr, err := http.Get(srv.URL + "/metrics?dataset=taxi")
	if err != nil {
		t.Fatal(err)
	}
	ptext, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if !strings.Contains(string(ptext), `maliva_requests_total{dataset="taxi"} 1`) {
		t.Errorf("per-dataset metrics missing labeled series:\n%s", ptext)
	}
}

// TestGatewayHealthz: the rollup reports every dataset's status; the
// per-dataset probe is 200 only when ready.
func TestGatewayHealthz(t *testing.T) {
	g := testGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var roll struct {
		Status   string            `json:"status"`
		Datasets map[string]string `json:"datasets"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&roll); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if roll.Status != "ok" || roll.Datasets["twitter"] != "ready" || roll.Datasets["taxi"] != "ready" {
		t.Errorf("healthz rollup = %+v", roll)
	}

	pr, err := http.Get(srv.URL + "/healthz?dataset=twitter")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Errorf("ready dataset healthz = %d, want 200", pr.StatusCode)
	}
}
