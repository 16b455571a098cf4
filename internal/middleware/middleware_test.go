package middleware

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// testServer builds a middleware over a tiny Twitter dataset using the
// zero-training Oracle rewriter (tests exercise the middleware, not the
// agent).
func testServer(t testing.TB) *Server {
	t.Helper()
	cfg := workload.TwitterConfig()
	cfg.Rows = 8_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oneTwitterGateway is testServer behind a one-dataset gateway: the HTTP
// surface the single-server tests drive. It returns the gateway and its
// Server; the gateway closes when the test ends.
func oneTwitterGateway(t testing.TB) (*Gateway, *Server) {
	t.Helper()
	return oneDatasetGateway(t, testDataset(t), core.OracleRewriter{}, ServerConfig{DefaultBudgetMs: 500})
}

func validRequest() Request {
	return Request{
		Keyword: "word0005",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region:  workload.USExtent,
		Kind:    VizHeatmap,
		GridW:   16, GridH: 8,
	}
}

// TestNewServerRejectsUnindexedFilterColumn: every served answer is counted
// from its predicates' posting lists, so a filter column without its index
// fails the constructor rather than the first request that filters on it.
func TestNewServerRejectsUnindexedFilterColumn(t *testing.T) {
	cfg := workload.TwitterConfig()
	cfg.Rows = 2_000
	ds, err := workload.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := ds.DB.Table(ds.Main)
	timeCol := ""
	for _, col := range ds.FilterCols {
		if tbl.Col(col).Type == engine.ColTime {
			timeCol = col
		}
	}
	if timeCol == "" || tbl.Index(timeCol) == nil {
		t.Fatalf("dataset has no indexed time column (filter columns %v)", ds.FilterCols)
	}
	delete(tbl.Indexes, timeCol)
	_, err = NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err == nil || !strings.Contains(err.Error(), timeCol) {
		t.Fatalf("err = %v, want a rejection naming column %q", err, timeCol)
	}
}

func TestBuildQuery(t *testing.T) {
	s := testServer(t)
	q, err := s.BuildQuery(validRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	sql := q.SQL(engine.Hint{})
	for _, want := range []string{"word0005", "created_at", "coordinates"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q: %s", want, sql)
		}
	}
}

func TestBuildQueryErrors(t *testing.T) {
	s := testServer(t)
	// Unknown keyword.
	req := validRequest()
	req.Keyword = "nosuchword"
	if _, err := s.BuildQuery(req); err == nil {
		t.Error("expected unknown-keyword error")
	}
	// No conditions at all.
	if _, err := s.BuildQuery(Request{Kind: VizScatter}); err == nil {
		t.Error("expected no-conditions error")
	}
}

func TestHandleHeatmap(t *testing.T) {
	s := testServer(t)
	resp, err := s.Handle(validRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != VizHeatmap {
		t.Errorf("Kind = %v", resp.Kind)
	}
	if len(resp.Bins) == 0 {
		t.Fatal("empty heatmap")
	}
	for cell := range resp.Bins {
		if cell < 0 || cell >= 16*8 {
			t.Errorf("cell %d out of grid", cell)
		}
	}
	tr := resp.Trace
	if tr.SQL == "" || tr.RewrittenSQL == "" || tr.Option == "" {
		t.Errorf("trace incomplete: %+v", tr)
	}
	if tr.TotalMs <= 0 || tr.ExecMs <= 0 {
		t.Errorf("trace times: %+v", tr)
	}
}

func TestHandleScatter(t *testing.T) {
	s := testServer(t)
	req := validRequest()
	req.Kind = VizScatter
	resp, err := s.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) == 0 {
		t.Fatal("no scatter points")
	}
	for _, p := range resp.Points {
		if !req.Region.Contains(p) {
			t.Fatalf("point %v outside requested region", p)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	g, _ := oneTwitterGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Health probe.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hr.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{
		"keyword": "word0005",
		"from":    "2016-03-01T00:00:00Z",
		"to":      "2016-05-01T00:00:00Z",
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
		"kind": "heatmap", "grid_w": 8, "grid_h": 8, "budget_ms": 500,
	})
	resp, err := http.Post(srv.URL+"/viz", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /viz = %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Bins) == 0 || out.Trace.RewrittenSQL == "" {
		t.Errorf("response incomplete: %+v", out.Trace)
	}

	// Malformed request → 400.
	bad, err := http.Post(srv.URL+"/viz", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed request = %d, want 400", bad.StatusCode)
	}

	// Bad timestamp → 400.
	badTime, _ := json.Marshal(map[string]any{"keyword": "word0005", "from": "yesterday"})
	bt, err := http.Post(srv.URL+"/viz", "application/json", bytes.NewReader(badTime))
	if err != nil {
		t.Fatal(err)
	}
	bt.Body.Close()
	if bt.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timestamp = %d, want 400", bt.StatusCode)
	}
}
