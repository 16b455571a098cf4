package middleware

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// sessReq builds a heatmap request over a lattice tile of the unit extent:
// zoom z splits each axis into 2^z tiles; (tx, ty) picks the tile.
func sessReq(ext engine.Rect, z, tx, ty int) Request {
	n := float64(int(1) << z)
	w := (ext.MaxLon - ext.MinLon) / n
	h := (ext.MaxLat - ext.MinLat) / n
	return Request{
		Kind: VizHeatmap, GridW: 16, GridH: 16, BudgetMs: 500,
		From: time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:   time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region: engine.Rect{
			MinLon: ext.MinLon + float64(tx)*w, MinLat: ext.MinLat + float64(ty)*h,
			MaxLon: ext.MinLon + float64(tx+1)*w, MaxLat: ext.MinLat + float64(ty+1)*h,
		},
	}
}

// TestPredictMomentumContinuesPan: two same-zoom viewports one tile apart
// predict the next tile along the pan, snapped exactly onto the lattice.
func TestPredictMomentumContinuesPan(t *testing.T) {
	ext := engine.Rect{MinLon: 0, MinLat: 0, MaxLon: 64, MaxLat: 64}
	tr := NewSessionTracker(SessionConfig{MaxPrefetch: 1})
	if preds := tr.Observe("s1", sessReq(ext, 3, 2, 4), ext); len(preds) != 0 {
		// First observation has no momentum and MaxPrefetch=1 leaves no room
		// for the parent-tile prediction... unless the parent fits first.
		// Momentum is slot 1 only when history exists; with one slot the
		// parent prediction may take it. Accept either zero or one here.
		if len(preds) > 1 {
			t.Fatalf("first observation produced %d predictions, want <=1", len(preds))
		}
	}
	preds := tr.Observe("s1", sessReq(ext, 3, 3, 4), ext)
	if len(preds) != 1 {
		t.Fatalf("got %d predictions, want 1", len(preds))
	}
	want := sessReq(ext, 3, 4, 4).Region
	if !sameRegion(preds[0].Region, want) {
		t.Fatalf("momentum predicted %+v, want %+v", preds[0].Region, want)
	}
	if preds[0].GridW != 16 || preds[0].GridH != 16 {
		t.Fatalf("momentum prediction changed the grid: %dx%d", preds[0].GridW, preds[0].GridH)
	}
}

// TestPredictParentAligns: the zoom-out prediction is the containing lattice
// tile with a doubled grid, and its cells align exactly with the current
// viewport's (the property subsumption slicing depends on).
func TestPredictParentAligns(t *testing.T) {
	ext := engine.Rect{MinLon: 0, MinLat: 0, MaxLon: 64, MaxLat: 64}
	tr := NewSessionTracker(SessionConfig{MaxPrefetch: 2})
	cur := sessReq(ext, 3, 5, 2)
	preds := tr.Observe("s1", cur, ext)
	var parent *Request
	for i := range preds {
		if preds[i].GridW == 2*cur.GridW {
			parent = &preds[i]
		}
	}
	if parent == nil {
		t.Fatalf("no parent-tile prediction in %+v", preds)
	}
	if !parent.Region.Contains(engine.Point{Lon: cur.Region.MinLon, Lat: cur.Region.MinLat}) {
		t.Fatalf("parent %+v does not contain the viewport %+v", parent.Region, cur.Region)
	}
	if _, _, ok := gridAlign(parent.Region, parent.GridW, parent.GridH, cur.Region, cur.GridW, cur.GridH); !ok {
		t.Fatalf("parent grid does not align with the viewport: parent %+v %dx%d, cur %+v %dx%d",
			parent.Region, parent.GridW, parent.GridH, cur.Region, cur.GridW, cur.GridH)
	}
}

// TestSessionTrackerLRU: the tracker is bounded and evicts the least
// recently observed session.
func TestSessionTrackerLRU(t *testing.T) {
	ext := engine.Rect{MinLon: 0, MinLat: 0, MaxLon: 64, MaxLat: 64}
	tr := NewSessionTracker(SessionConfig{MaxSessions: 2})
	tr.Observe("a", sessReq(ext, 3, 1, 1), ext)
	tr.Observe("b", sessReq(ext, 3, 2, 1), ext)
	tr.Observe("a", sessReq(ext, 3, 1, 2), ext) // refresh a
	tr.Observe("c", sessReq(ext, 3, 3, 1), ext) // evicts b
	if tr.Len() != 2 {
		t.Fatalf("tracker holds %d sessions, want 2", tr.Len())
	}
	// b was evicted: a fresh observation of b has no momentum even after a
	// second step... instead verify directly that a survived by checking a
	// pan of "a" still yields a momentum prediction.
	preds := tr.Observe("a", sessReq(ext, 3, 1, 3), ext)
	found := false
	want := sessReq(ext, 3, 1, 4).Region
	for _, p := range preds {
		if sameRegion(p.Region, want) {
			found = true
		}
	}
	if !found {
		t.Fatal("refreshed session lost its momentum history to LRU eviction")
	}
}

// vizBody renders a request in the /viz JSON wire format.
func vizBody(t testing.TB, req Request) []byte {
	t.Helper()
	body, err := json.Marshal(httpRequest{
		Keyword:  req.Keyword,
		From:     req.From.Format(time.RFC3339Nano),
		To:       req.To.Format(time.RFC3339Nano),
		MinLon:   req.Region.MinLon,
		MinLat:   req.Region.MinLat,
		MaxLon:   req.Region.MaxLon,
		MaxLat:   req.Region.MaxLat,
		Kind:     string(req.Kind),
		GridW:    req.GridW,
		GridH:    req.GridH,
		BudgetMs: req.BudgetMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestGatewaySessionPrefetchEndToEnd drives a panning session through a
// sessions-enabled gateway and verifies the pipeline end to end: the
// observer predicts, prefetches fill the cache, and the session's
// next step is served warm and counted as a prefetch hit — byte-identical
// to the same request on an uncached gateway, which tracks no sessions.
func TestGatewaySessionPrefetchEndToEnd(t *testing.T) {
	reg := workload.NewRegistry()
	if err := reg.Register("twitter", tinyTwitterBuilder(8_000)); err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(reg, OracleFactory, GatewayConfig{
		Server: ServerConfig{DefaultBudgetMs: 500},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := g.Server("twitter")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	ext := srv.DS.Extent
	post := func(req Request, sid string) []byte {
		t.Helper()
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/viz?dataset=twitter", bytes.NewReader(vizBody(t, req)))
		hr.Header.Set("Content-Type", "application/json")
		if sid != "" {
			hr.Header.Set(SessionHeader, sid)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Pan east along a z4 tile row with human-ish think-time gaps. The whole
	// observe→predict→prefetch pipeline is asynchronous by design (observer
	// queue, prefetch goroutines admitted on idle capacity), so the test does
	// not pin which step gets served speculatively — it pans until some step
	// lands on a prefetched entry, bounded by a deadline.
	var trace []Request
	var bodies [][]byte
	deadline := time.Now().Add(15 * time.Second)
	for y := 8; y <= 11 && srv.Metrics().Snapshot().PrefetchHits == 0; y++ {
		for x := 1; x <= 14; x++ {
			req := sessReq(ext, 4, x, y)
			trace = append(trace, req)
			bodies = append(bodies, post(req, "sess-e2e"))
			if x >= 3 && srv.Metrics().Snapshot().PrefetchHits > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no pan step was ever served from a prefetched entry; snapshot %+v", srv.Metrics().Snapshot())
			}
			time.Sleep(20 * time.Millisecond) // think time prefetches speculate into
		}
	}
	after := srv.Metrics().Snapshot()
	if after.PrefetchComputed == 0 || after.PrefetchHits == 0 {
		t.Fatalf("prefetch pipeline never fired: %+v", after)
	}

	// Every step of the trace — prefetched, subsumed, or executed — must be
	// byte-identical to the same request on a prefetch-less gateway.
	reg2 := workload.NewRegistry()
	if err := reg2.Register("twitter", tinyTwitterBuilder(8_000)); err != nil {
		t.Fatal(err)
	}
	g2, err := NewGateway(reg2, OracleFactory, GatewayConfig{
		Server: ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1},
		Space:  core.HintOnlySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(g2.Handler())
	defer ts2.Close()
	for i, req := range trace {
		hr, _ := http.NewRequest(http.MethodPost, ts2.URL+"/viz?dataset=twitter", bytes.NewReader(vizBody(t, req)))
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		_, err = want.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bodies[i], want.Bytes()) {
			t.Fatalf("trace step %d diverged from direct execution:\nsession:  %s\ndirect:   %s", i, bodies[i], want.Bytes())
		}
	}

	// The gateway /metrics endpoint exports the session counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"maliva_prefetch_issued_total",
		"maliva_prefetch_hits_total",
		"maliva_prefetch_shed_total",
		"maliva_subsumed_hits_total",
		`maliva_admission_queue_depth{lane="live"}`,
	} {
		if !bytes.Contains(mbuf.Bytes(), []byte(metric)) {
			t.Fatalf("/metrics is missing %s", metric)
		}
	}
}
