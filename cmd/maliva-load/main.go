// Command maliva-load is a closed-loop load generator for the Maliva
// serving layer: N workers fire visualization requests back to back over a
// Zipf-skewed shape mix (hot pan/zoom shapes repeat, tail shapes don't)
// spanning one or more datasets behind a Gateway, and print sustained QPS
// plus client-side latency quantiles, overall and per dataset. It exits
// non-zero when any request fails (429/503 rejections are counted, not
// failures).
//
//	maliva-load -url http://host:8080     # drive a running gateway
//	maliva-load -datasets twitter,taxi    # one in-process gateway, warmed
//	maliva-load -agent maliva-agent.json  # in-process, a trained MDP snapshot
//
// It asserts nothing about the answers and records no baseline: invariants
// live in `go test`, numbers in bench/ (see bench/README.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

// shape is one request shape against one dataset; the workload draws shapes
// Zipf-skewed so a hot subset dominates (what a pan/zoom session over
// popular keywords looks like) while the tail stays effectively uncacheable.
type shape struct {
	dataset string
	body    []byte
}

// tally is the measurements of one slice of the pass (one dataset, or all).
type tally struct {
	lats     []float64 // ms, successful requests only
	total    int64
	errors   int64
	rejected int64
}

func (t *tally) add(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.total += o.total
	t.errors += o.errors
	t.rejected += o.rejected
}

func main() {
	var (
		url      = flag.String("url", "", "target a running gateway instead of in-process")
		rows     = flag.Int("rows", 60_000, "in-process rows per dataset")
		datasets = flag.String("datasets", "twitter", "comma-separated datasets to mix (twitter | taxi | tpch)")
		agent    = flag.String("agent", "", "in-process: serve a trained MDP agent snapshot (cmd/maliva-train output) instead of the Oracle")
		workers  = flag.Int("c", 16, "closed-loop workers")
		duration = flag.Duration("duration", 10*time.Second, "measured time")
		nShapes  = flag.Int("shapes", 200, "distinct request shapes per dataset")
		zipfS    = flag.Float64("zipf-s", 1.2, "shape popularity skew (Zipf s)")
		budget   = flag.Float64("budget", 500, "request budget_ms")
		seed     = flag.Int64("seed", 11, "workload seed")
	)
	flag.Parse()

	if *zipfS <= 1 {
		fatal(fmt.Errorf("-zipf-s must be > 1 (got %v)", *zipfS))
	}
	var names []string
	for _, name := range strings.Split(*datasets, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("-datasets lists no datasets"))
	}
	if *url != "" && *agent != "" {
		fatal(fmt.Errorf("-agent configures the in-process gateway; a remote -url serves its own rewriter"))
	}

	// Shape generation reads only dataset metadata (extent, time domain, the
	// deterministic keyword naming), so a remote target needs just a tiny
	// local build.
	buildRows := *rows
	if *url != "" {
		buildRows = 2_000
	}
	fmt.Fprintf(os.Stderr, "building %d-row dataset(s): %s...\n", buildRows, strings.Join(names, ", "))
	built := make(map[string]*workload.Dataset, len(names))
	for _, name := range names {
		build, err := workload.StandardBuilder(name, buildRows)
		if err != nil {
			fatal(err)
		}
		if built[name], err = build(); err != nil {
			fatal(err)
		}
	}
	shapes := mixShapes(names, built, *nShapes, *budget, *seed)

	target := *url
	if target == "" {
		hs, addr := startGateway(names, built, *budget, *agent)
		defer hs.Close()
		target = addr
	}

	// The timeout bounds a wedged server: workers fail fast instead of
	// hanging the pass forever.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *workers * 2,
			MaxIdleConnsPerHost: *workers * 2,
		},
	}
	// Touch every shape once: the pass measures steady-state cache behavior,
	// not cold start.
	for _, sh := range shapes {
		_, _ = fire(client, target, sh)
	}
	perDS, elapsed := runPass(client, target, shapes, *workers, *duration, *zipfS, *seed)

	var all tally
	for _, name := range names {
		if t := perDS[name]; t != nil {
			all.add(t)
		}
	}
	printTally("total", &all, elapsed)
	for _, name := range names {
		if t := perDS[name]; t != nil {
			printTally("  "+name, t, elapsed)
		}
	}
	if all.errors > 0 {
		fatal(fmt.Errorf("%d of %d requests failed", all.errors, all.total))
	}
}

func printTally(label string, t *tally, elapsed time.Duration) {
	sort.Float64s(t.lats)
	fmt.Printf("%-14s %7.0f req/s  p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms  max %7.1f ms  (%d requests, %d errors, %d rejected)\n",
		label, float64(t.total)/elapsed.Seconds(),
		pct(t.lats, 0.50), pct(t.lats, 0.95), pct(t.lats, 0.99), pct(t.lats, 1),
		t.total, t.errors, t.rejected)
}

// mixShapes builds the cross-dataset request pool: n shapes per dataset,
// interleaved so the Zipf-hot head of the pool spans every dataset (the
// gateway's caches see concurrent hot traffic on each, not one dataset
// monopolizing the head).
func mixShapes(names []string, built map[string]*workload.Dataset, n int, budget float64, seed int64) []shape {
	perDS := make([][]shape, len(names))
	for i, name := range names {
		perDS[i] = makeShapes(name, built[name], n, budget, seed+int64(i)*101)
	}
	out := make([]shape, 0, len(names)*n)
	for j := 0; j < n; j++ {
		for i := range names {
			out = append(out, perDS[i][j])
		}
	}
	return out
}

// makeShapes builds one dataset's request-shape pool from its metadata:
// popular keywords when the dataset has a text column, week-to-month time
// windows over its temporal domain, and pan/zoom tiles over its spatial
// extent when it has one.
func makeShapes(name string, ds *workload.Dataset, n int, budget float64, seed int64) []shape {
	rng := rand.New(rand.NewSource(seed))
	t := ds.DB.Table(ds.Main)
	hasText := false
	for _, col := range ds.FilterCols {
		if t.HasColumn(col) && t.Col(col).Type == engine.ColText {
			hasText = true
			break
		}
	}
	ext := ds.Extent
	hasGeo := ext.Area() > 0
	spanDays := ds.TimeSpanDays
	shapes := make([]shape, n)
	for i := range shapes {
		req := map[string]any{
			"kind": "heatmap", "grid_w": 32, "grid_h": 16, "budget_ms": budget,
		}
		if rng.Float64() < 0.1 {
			req["kind"] = "scatter"
		}
		if hasText {
			// Zipf-ish keyword choice mirrors the generated vocabulary.
			req["keyword"] = fmt.Sprintf("word%04d", rng.Intn(60))
		}
		days := 7 + rng.Intn(53)
		start := ds.TimeOrigin.AddDate(0, 0, rng.Intn(spanDays-days))
		req["from"] = start.Format(time.RFC3339)
		req["to"] = start.AddDate(0, 0, days).Format(time.RFC3339)
		if hasGeo {
			// Zoom level 0–3: each level halves the viewport.
			z := rng.Intn(4)
			w := (ext.MaxLon - ext.MinLon) / float64(int(1)<<z)
			h := (ext.MaxLat - ext.MinLat) / float64(int(1)<<z)
			minLon := ext.MinLon + rng.Float64()*(ext.MaxLon-ext.MinLon-w)
			minLat := ext.MinLat + rng.Float64()*(ext.MaxLat-ext.MinLat-h)
			req["min_lon"], req["min_lat"] = minLon, minLat
			req["max_lon"], req["max_lat"] = minLon+w, minLat+h
		}
		body, _ := json.Marshal(req) // a map of strings and numbers cannot fail
		shapes[i] = shape{dataset: name, body: body}
	}
	return shapes
}

// startGateway serves every built dataset through one warm Gateway over a
// loopback listener and returns the server (for Close) and its base URL.
// agentPath, when set, loads one MDP policy instance per dataset (each
// Server serializes only its own rewriter, so instances must not be shared).
func startGateway(names []string, built map[string]*workload.Dataset, budget float64, agentPath string) (*http.Server, string) {
	factory := middleware.OracleFactory
	if agentPath != "" {
		factory = func(string, *workload.Dataset) (core.Rewriter, error) {
			a, err := core.LoadAgentFile(agentPath)
			if err != nil {
				return nil, err
			}
			return &core.MDPRewriter{Agent: a, QTE: qte.NewAccurateQTE(), Tag: "Accurate-QTE"}, nil
		}
	}
	reg := workload.NewRegistry()
	for _, name := range names {
		ds := built[name]
		if err := reg.Register(name, func() (*workload.Dataset, error) { return ds, nil }); err != nil {
			fatal(err)
		}
	}
	gw, err := middleware.NewGateway(reg, factory, middleware.GatewayConfig{
		Server: middleware.ServerConfig{DefaultBudgetMs: budget},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		fatal(err)
	}
	if err := gw.Warm(); err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: gw.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on hs.Close
	return hs, "http://" + ln.Addr().String()
}

// runPass hammers the target with a closed loop of workers for d and returns
// the per-dataset tallies plus the measured wall time.
func runPass(client *http.Client, url string, shapes []shape, workers int, d time.Duration, zipfS float64, seed int64) (map[string]*tally, time.Duration) {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	accCh := make(chan map[string]*tally, workers) // one send per worker
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(shapes)-1))
			acc := make(map[string]*tally)
			for !stop.Load() {
				sh := shapes[zipf.Uint64()]
				a := acc[sh.dataset]
				if a == nil {
					a = &tally{lats: make([]float64, 0, 4096)}
					acc[sh.dataset] = a
				}
				t0 := time.Now()
				code, err := fire(client, url, sh)
				lat := time.Since(t0)
				a.total++
				switch {
				case err == nil && code == http.StatusOK:
					a.lats = append(a.lats, float64(lat)/float64(time.Millisecond))
				case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
					a.rejected++
				default:
					a.errors++
				}
			}
			accCh <- acc
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	close(accCh)

	merged := make(map[string]*tally)
	for acc := range accCh {
		for ds, a := range acc {
			if merged[ds] == nil {
				merged[ds] = &tally{}
			}
			merged[ds].add(a)
		}
	}
	return merged, elapsed
}

// fire posts one request to its dataset's route and drains the response.
func fire(client *http.Client, url string, sh shape) (code int, err error) {
	resp, err := client.Post(url+"/viz?dataset="+sh.dataset, "application/json", bytes.NewReader(sh.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maliva-load:", err)
	os.Exit(1)
}
