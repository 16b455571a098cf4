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
	"testing"
	"time"
	"weak"

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

// testGateway builds a two-dataset gateway over tiny Twitter + Taxi.
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
	return g
}

// oneDatasetGateway serves ds alone, with rw as its rewriter: the HTTP
// surface a single-dataset test drives. It returns the gateway and its one
// Server, and closes the gateway when the test ends.
func oneDatasetGateway(t testing.TB, ds *workload.Dataset, rw core.Rewriter, cfg ServerConfig) (*Gateway, *Server) {
	t.Helper()
	reg := workload.NewRegistry()
	if err := reg.Register(ds.Name, func() (*workload.Dataset, error) { return ds, nil }); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, func(string, *workload.Dataset) (core.Rewriter, error) { return rw, nil },
		GatewayConfig{Server: cfg, Space: core.HintOnlySpec()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	srv, err := g.Server("")
	if err != nil {
		t.Fatal(err)
	}
	return g, srv
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

// withGOMAXPROCS runs fn with GOMAXPROCS — and so NewGateway's build pool
// width — set to workers, restoring it afterwards. (No middleware test runs
// in parallel, so the process-wide setting is the test's own.)
func withGOMAXPROCS(t *testing.T, workers int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		fn(t)
	})
}

// TestGatewayWarmBoundedPool: NewGateway fans the dataset builds out on the
// bounded worker pool and returns only once every dataset is served. At one
// worker and at two it runs each builder and the rewriter factory exactly
// once per dataset.
func TestGatewayWarmBoundedPool(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withGOMAXPROCS(t, workers, func(t *testing.T) {
			reg := workload.NewRegistry()
			var mu sync.Mutex
			builds, factories := map[string]int{}, map[string]int{}
			count := func(m map[string]int, name string) {
				mu.Lock()
				m[name]++
				mu.Unlock()
			}
			for name, build := range map[string]func() (*workload.Dataset, error){
				"twitter": tinyTwitterBuilder(4_000),
				"taxi":    tinyTaxiBuilder(4_000),
			} {
				if err := reg.Register(name, func() (*workload.Dataset, error) {
					count(builds, name)
					return build()
				}); err != nil {
					t.Fatal(err)
				}
			}
			factory := func(name string, ds *workload.Dataset) (core.Rewriter, error) {
				count(factories, name)
				return core.OracleRewriter{}, nil
			}
			g, err := NewGateway(reg, factory, GatewayConfig{
				Server: ServerConfig{DefaultBudgetMs: 500},
				Space:  core.HintOnlySpec(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			for _, name := range []string{"twitter", "taxi"} {
				if builds[name] != 1 || factories[name] != 1 {
					t.Errorf("%s: builder ran %d times, factory %d times; want 1 and 1",
						name, builds[name], factories[name])
				}
				if _, err := g.Server(name); err != nil {
					t.Errorf("%s not served after NewGateway: %v", name, err)
				}
			}
		})
	}
}

// TestGatewayWarmFailureDoesNotStrand: a failing builder makes NewGateway
// return an error naming that dataset, at one worker and at two, and the
// Servers it had already built are closed rather than stranded — the
// dataset that outlives them no longer reaches them through its flush
// hooks.
func TestGatewayWarmFailureDoesNotStrand(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withGOMAXPROCS(t, workers, func(t *testing.T) {
			taxi, err := tinyTaxiBuilder(4_000)()
			if err != nil {
				t.Fatal(err)
			}
			reg := workload.NewRegistry()
			if err := reg.Register("taxi", func() (*workload.Dataset, error) { return taxi, nil }); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register("broken", func() (*workload.Dataset, error) {
				return nil, fmt.Errorf("synthetic build failure")
			}); err != nil {
				t.Fatal(err)
			}
			var built weak.Pointer[resultCache]
			g, err := NewGateway(reg, OracleFactory, GatewayConfig{
				Server: ServerConfig{DefaultBudgetMs: 500},
				Space:  core.HintOnlySpec(),
				WrapResultCache: func(dataset string, local ResultCache) ResultCache {
					built = weak.Make(local.(*resultCache))
					return local
				},
			})
			if err == nil || !strings.Contains(err.Error(), `"broken"`) {
				t.Fatalf("NewGateway = (%v, %v), want an error naming the broken dataset", g, err)
			}
			if built.Value() == nil {
				t.Fatal("taxi was never built")
			}
			for i := 0; i < 5 && built.Value() != nil; i++ {
				runtime.GC()
			}
			if built.Value() != nil {
				t.Fatal("the taxi server NewGateway built is still reachable from its dataset")
			}
			runtime.KeepAlive(taxi)
		})
	}
}

// TestGatewayByteIdenticalToServer is the gateway's determinism guarantee:
// for the same requests, a two-dataset Gateway response body is
// byte-identical to the one a one-dataset gateway over the same dataset
// produces — per dataset, including under concurrent gateway traffic. Run
// with -race.
func TestGatewayByteIdenticalToServer(t *testing.T) {
	g := testGateway(t)
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// One-dataset gateways over identically-generated datasets.
	oneDataset := make(map[string]*httptest.Server)
	for name, build := range map[string]func() (*workload.Dataset, error){
		"twitter": tinyTwitterBuilder(8_000),
		"taxi":    tinyTaxiBuilder(8_000),
	} {
		ds, err := build()
		if err != nil {
			t.Fatal(err)
		}
		one, _ := oneDatasetGateway(t, ds, core.OracleRewriter{}, ServerConfig{DefaultBudgetMs: 500})
		oneDataset[name] = httptest.NewServer(one.Handler())
		defer oneDataset[name].Close()
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

	// Concurrent pass through the two-dataset gateway (exercises the caches
	// and the shared admission pool under -race), then a serial replay
	// against the one-dataset gateways.
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
			want := post(oneDataset[sh.dataset].URL+"/viz", sh.body)
			if !bytes.Equal(got[w][i], want) {
				t.Errorf("w=%d i=%d dataset=%s: two-dataset response diverges from the one-dataset gateway\n got %s\nwant %s",
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
