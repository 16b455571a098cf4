package middleware

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// TestConcurrentHandleMatchesSerialReplay hammers one Server from 32
// goroutines with a mix of cacheable (repeated) and uncacheable (distinct)
// requests and asserts every response is bit-identical to a serial replay
// of the same request sequence on a fresh server — the serving-layer
// analogue of core's BuildContext determinism test. Run with -race to
// exercise the concurrency claim on the caches, the shared LookupCache,
// and the admission pool.
func TestConcurrentHandleMatchesSerialReplay(t *testing.T) {
	ds := testDataset(t)
	concurrent, err := NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err != nil {
		t.Fatal(err)
	}

	// A pool of distinct shapes (different keywords, windows, grids, kinds,
	// budgets); the request stream cycles through it with heavy repetition,
	// so hot shapes hit every cache layer while cold ones keep missing.
	shapes := make([]Request, 0, 12)
	for i := 0; i < 12; i++ {
		req := validRequest()
		req.Keyword = []string{"word0003", "word0005", "word0007", "word0011"}[i%4]
		req.From = time.Date(2016, time.Month(1+i%6), 1, 0, 0, 0, 0, time.UTC)
		req.To = req.From.AddDate(0, 2, 0)
		if i%3 == 0 {
			req.Kind = VizScatter
		}
		if i%2 == 0 {
			req.GridW, req.GridH = 8, 8
		}
		req.BudgetMs = []float64{0, 400, 800}[i%3]
		shapes = append(shapes, req)
	}

	const goroutines = 32
	const perG = 6
	type result struct {
		body []byte
		err  error
	}
	results := make([][]result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]result, perG)
			for i := 0; i < perG; i++ {
				req := shapes[(g*perG+i*5)%len(shapes)]
				resp, err := concurrent.Handle(req)
				if err != nil {
					out[i] = result{err: err}
					continue
				}
				b, err := json.Marshal(resp)
				out[i] = result{body: b, err: err}
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	// Serial replay of the exact same request sequence.
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			req := shapes[(g*perG+i*5)%len(shapes)]
			want, err := serial.Handle(req)
			if err != nil {
				t.Fatalf("serial replay g=%d i=%d: %v", g, i, err)
			}
			wantB, _ := json.Marshal(want)
			got := results[g][i]
			if got.err != nil {
				t.Fatalf("concurrent g=%d i=%d: %v", g, i, got.err)
			}
			if !bytes.Equal(got.body, wantB) {
				t.Errorf("g=%d i=%d: concurrent response diverges from serial replay\n got %s\nwant %s",
					g, i, got.body, wantB)
			}
		}
	}

	snap := concurrent.Metrics().Snapshot()
	if snap.PlanHits == 0 {
		t.Error("no plan-cache reuse under the concurrent load")
	}
	if snap.ResultHits == 0 {
		t.Error("no result-cache hits under the concurrent load")
	}
}

// TestConcurrentIdenticalColdRequests: with no coalescing, concurrent
// identical cold requests each plan and execute, and a quarter tile may be
// computed directly or sliced from its parent depending on timing. Every
// body must still be byte-identical to an uncached server's. Run with -race:
// the racers share plan-cache entries, the result cache and the containment
// index.
func TestConcurrentIdenticalColdRequests(t *testing.T) {
	subject, reference := subsumeServers(t)
	ext := subject.DS.Extent
	parent := Request{
		Keyword: "word0007",
		From:    time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC),
		Region:  ext, Kind: VizHeatmap, GridW: 16, GridH: 8, BudgetMs: 500,
	}
	quarter := parent
	quarter.GridW, quarter.GridH = 8, 4
	quarter.Region.MaxLon = ext.MinLon + (ext.MaxLon-ext.MinLon)/2
	quarter.Region.MaxLat = ext.MinLat + (ext.MaxLat-ext.MinLat)/2

	want := make(map[*Request][]byte)
	for _, req := range []*Request{&parent, &quarter} {
		resp, err := reference.Handle(*req)
		if err != nil {
			t.Fatal(err)
		}
		want[req], _ = json.Marshal(resp)
	}

	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := []*Request{&parent, &quarter}
			if g%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			<-start
			for _, req := range order {
				resp, err := subject.Handle(*req)
				if err != nil {
					t.Error(err)
					return
				}
				got, _ := json.Marshal(resp)
				if !bytes.Equal(got, want[req]) {
					t.Errorf("goroutine %d, %d×%d tile: body differs from the uncached server\n got %s\nwant %s",
						g, req.GridW, req.GridH, got, want[req])
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	// Racing builds and puts of one key leave one entry per key.
	if n := subject.plans.len(); n != 2 {
		t.Errorf("plan cache holds %d entries, want 2", n)
	}
	if n := subject.local.Len(); n != 2 {
		t.Errorf("result cache holds %d entries, want 2", n)
	}
}

// testDataset builds the shared small Twitter dataset.
func testDataset(t testing.TB) *workload.Dataset {
	t.Helper()
	cfg := workload.TwitterConfig()
	cfg.Rows = 8_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
