package middleware

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// tinyDataset builds a minimal custom dataset with an optional time and
// point column, for exercising the per-column request/construction errors
// the Twitter dataset can't reach.
func tinyDataset(t testing.TB, withTime, withGeo bool) *workload.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db := engine.NewDB(engine.ProfilePostgres(), 7)
	tb := engine.NewTable("docs", 10)
	words := []string{"alpha", "beta", "gamma"}
	for _, w := range words {
		tb.Vocab.Intern(w)
	}
	const rows = 400
	texts := make([][]uint32, rows)
	times := make([]int64, rows)
	points := make([]engine.Point, rows)
	ids := make([]int64, rows)
	origin := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		texts[i] = engine.SortTokens([]uint32{uint32(rng.Intn(len(words))) + 1})
		times[i] = origin.Add(time.Duration(rng.Intn(365*24)) * time.Hour).UnixMilli()
		points[i] = engine.Point{Lon: rng.Float64() * 10, Lat: rng.Float64() * 10}
		ids[i] = int64(i)
	}
	cols := []*engine.Column{
		{Name: "id", Type: engine.ColInt64, Ints: ids},
		{Name: "text", Type: engine.ColText, Texts: texts},
	}
	filterCols := []string{"text"}
	outputCols := []string{"id"}
	if withTime {
		cols = append(cols, &engine.Column{Name: "created_at", Type: engine.ColTime, Ints: times})
		filterCols = append(filterCols, "created_at")
	}
	if withGeo {
		cols = append(cols, &engine.Column{Name: "loc", Type: engine.ColPoint, Points: points})
		filterCols = append(filterCols, "loc")
		outputCols = append(outputCols, "loc")
	}
	for _, c := range cols {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.BuildIndex("text", engine.IndexInverted); err != nil {
		t.Fatal(err)
	}
	if withTime {
		if _, err := tb.BuildIndex("created_at", engine.IndexBTree); err != nil {
			t.Fatal(err)
		}
	}
	if withGeo {
		if _, err := tb.BuildIndex("loc", engine.IndexRTree); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	return &workload.Dataset{
		Name:       "tiny",
		DB:         db,
		Main:       "docs",
		FilterCols: filterCols,
		OutputCols: outputCols,
		Extent:     engine.Rect{MaxLon: 10, MaxLat: 10},
	}
}

// TestNewServerResolvesColumns: the time/point columns are resolved once at
// construction, and a dataset with neither is rejected up front.
func TestNewServerResolvesColumns(t *testing.T) {
	// Neither time nor geo: construction fails.
	ds := tinyDataset(t, false, false)
	if _, err := NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500); err == nil {
		t.Fatal("expected construction error for dataset with neither time nor point column")
	}

	// Missing main table: construction fails.
	broken := tinyDataset(t, true, true)
	broken.Main = "nosuchtable"
	if _, err := NewServer(broken, core.OracleRewriter{}, core.HintOnlySpec(), 500); err == nil {
		t.Fatal("expected construction error for missing main table")
	}

	// Full Twitter dataset: all three columns resolve.
	s := testServer(t)
	if s.textCol != "text" || s.timeCol != "created_at" || s.geoCol != "coordinates" {
		t.Errorf("resolved columns = %q %q %q", s.textCol, s.timeCol, s.geoCol)
	}
}

// TestNewServerIsExactOnly: serving fails fast on an option space with any
// approximation rule, and accepts the hint-only space every server uses.
func TestNewServerIsExactOnly(t *testing.T) {
	ds := tinyDataset(t, true, true)
	sampled := core.HintOnlySpec()
	sampled.ApproxRules = []core.ApproxRule{{Kind: core.ApproxSample, Percent: 20}}
	for name, space := range map[string]core.SpaceSpec{"quality-aware": core.QualityAwareSpec(), "sample": sampled} {
		if _, err := NewServer(ds, core.OracleRewriter{}, space, 500); err == nil {
			t.Errorf("%s space: server constructed, want an error", name)
		}
	}
	if _, err := NewServer(ds, core.OracleRewriter{}, core.HintOnlySpec(), 500); err != nil {
		t.Errorf("hint-only space: %v", err)
	}
}

// TestHandleErrorPaths drives Server.Handle through every request-caused
// failure and asserts each is marked ErrBadRequest.
func TestHandleErrorPaths(t *testing.T) {
	twitter := testServer(t)
	timeOnly, err := NewServer(tinyDataset(t, true, false), core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err != nil {
		t.Fatal(err)
	}
	geoOnly, err := NewServer(tinyDataset(t, false, true), core.OracleRewriter{}, core.HintOnlySpec(), 500)
	if err != nil {
		t.Fatal(err)
	}

	from := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		s    *Server
		req  Request
	}{
		{"unknown keyword", twitter, Request{Keyword: "nosuchword"}},
		{"empty predicate set", twitter, Request{Kind: VizHeatmap}},
		{"missing geo column", timeOnly, Request{Keyword: "alpha", Region: engine.Rect{MaxLon: 5, MaxLat: 5}}},
		{"missing time column", geoOnly, Request{Keyword: "alpha", From: from, To: to}},
		{"inverted window", twitter, Request{Keyword: "word0005", From: to, To: from}},
		{"inverted region lon", twitter, Request{Keyword: "word0005", Region: engine.Rect{MinLon: -90, MinLat: 30, MaxLon: -100, MaxLat: 40}}},
		{"inverted region lat", twitter, Request{Keyword: "word0005", Region: engine.Rect{MinLon: -100, MinLat: 40, MaxLon: -90, MaxLat: 30}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.s.Handle(tc.req)
			if err == nil {
				t.Fatal("expected error")
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("error %v is not ErrBadRequest", err)
			}
		})
	}
}

// httpCase is one row of TestHTTPErrorPaths.
type httpCase struct {
	name       string
	method     string
	body       string
	wantStatus int
	session    string // non-empty: sent to the gateway with this session id
	wantBody   string // substring of the error text, when set
}

// httpCases are TestHTTPErrorPaths' rows; their bodies also seed
// FuzzParseRequest.
func httpCases() []httpCase {
	valid := func(mutate func(m map[string]any)) []byte {
		m := map[string]any{
			"keyword": "word0005",
			"from":    "2016-03-01T00:00:00Z",
			"to":      "2016-05-01T00:00:00Z",
			"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
			"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
			"kind": "heatmap", "grid_w": 8, "grid_h": 8, "budget_ms": 500.0,
		}
		if mutate != nil {
			mutate(m)
		}
		b, _ := json.Marshal(m)
		return b
	}

	oversize := string(valid(func(m map[string]any) { m["keyword"] = strings.Repeat("a", MaxVizBody) }))
	const tooLarge = "request body too large"
	return []httpCase{
		{"heatmap ok", http.MethodPost, string(valid(nil)), http.StatusOK, "", ""},
		{"scatter ok", http.MethodPost, string(valid(func(m map[string]any) { m["kind"] = "scatter" })), http.StatusOK, "", ""},
		{"malformed json", http.MethodPost, "{nope", http.StatusBadRequest, "", ""},
		{"bad timestamp", http.MethodPost, string(valid(func(m map[string]any) { m["from"] = "yesterday" })), http.StatusBadRequest, "", ""},
		{"unknown keyword", http.MethodPost, string(valid(func(m map[string]any) { m["keyword"] = "zzz" })), http.StatusBadRequest, "", ""},
		{"no conditions", http.MethodPost, "{}", http.StatusBadRequest, "", ""},
		{"non-POST method", http.MethodGet, "", http.StatusMethodNotAllowed, "", ""},
		{"heatmap ok, default grid", http.MethodPost, string(valid(func(m map[string]any) { m["grid_w"], m["grid_h"] = 0, -3 })), http.StatusOK, "", ""},
		{"heatmap ok, largest grid", http.MethodPost, string(valid(func(m map[string]any) { m["grid_w"] = maxGridSide })), http.StatusOK, "", ""},
		{"grid_w too large", http.MethodPost, string(valid(func(m map[string]any) { m["grid_w"] = maxGridSide + 1 })), http.StatusBadRequest, "", "exceeds"},
		{"grid_h overflows int32", http.MethodPost, string(valid(func(m map[string]any) { m["grid_h"] = 1 << 40 })), http.StatusBadRequest, "", "exceeds"},
		{"inverted region", http.MethodPost, string(valid(func(m map[string]any) { m["min_lat"], m["max_lat"] = 40.0, 30.0 })), http.StatusBadRequest, "", "inverted"},
		{"oversize body", http.MethodPost, oversize, http.StatusBadRequest, "", tooLarge},
		{"oversize body, session", http.MethodPost, oversize, http.StatusBadRequest, "pan-1", tooLarge},
	}
}

// TestHTTPErrorPaths is the table-driven HTTP suite over every error path
// and the success shapes, including the status-code mapping.
func TestHTTPErrorPaths(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Rows naming a session go through a gateway: its session branch buffers
	// the body before Server.serveViz sees it.
	gwSrv := httptest.NewServer(testGateway(t).Handler())
	defer gwSrv.Close()

	for _, tc := range httpCases() {
		t.Run(tc.name, func(t *testing.T) {
			base := srv.URL
			if tc.session != "" {
				base = gwSrv.URL
			}
			req, err := http.NewRequest(tc.method, base+"/viz", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.session != "" {
				req.Header.Set(SessionHeader, tc.session)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantStatus != http.StatusOK {
				if msg, _ := io.ReadAll(resp.Body); !strings.Contains(string(msg), tc.wantBody) {
					t.Errorf("error text %q does not mention %q", msg, tc.wantBody)
				}
				return
			}
			var out Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			switch VizKind(tc.name[:7]) {
			case "heatmap":
				if len(out.Bins) == 0 || len(out.Points) != 0 {
					t.Errorf("heatmap response shape: %d bins, %d points", len(out.Bins), len(out.Points))
				}
			case "scatter":
				if len(out.Points) == 0 || len(out.Bins) != 0 {
					t.Errorf("scatter response shape: %d bins, %d points", len(out.Bins), len(out.Points))
				}
			}
			if out.Trace.RewrittenSQL == "" || out.Trace.Option == "" {
				t.Errorf("trace incomplete: %+v", out.Trace)
			}
		})
	}
}

// FuzzParseRequest decodes arbitrary /viz bodies and builds the engine query
// of every one the decoder accepts. Nothing may panic, and every request
// BuildQuery accepts has grid sides within maxGridSide, a window whose from
// is not after its to, and a region that is empty or ordered. The
// TestHTTPErrorPaths bodies and a golden request seed the corpus, so plain
// go test runs them.
func FuzzParseRequest(f *testing.F) {
	for _, tc := range httpCases() {
		if tc.method == http.MethodPost && len(tc.body) <= MaxVizBody {
			f.Add([]byte(tc.body))
		}
	}
	f.Add(vizBody(f, validRequest()))
	s := testServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseRequest(body)
		if err != nil {
			return
		}
		if _, err := s.BuildQuery(req); err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("BuildQuery error %v is not ErrBadRequest", err)
			}
			return
		}
		if req.GridW > maxGridSide || req.GridH > maxGridSide {
			t.Errorf("accepted a %dx%d grid", req.GridW, req.GridH)
		}
		if !req.From.IsZero() && !req.To.IsZero() && req.From.After(req.To) {
			t.Errorf("accepted an inverted window %v .. %v", req.From, req.To)
		}
		if r := req.Region; r.MinLon > r.MaxLon || r.MinLat > r.MaxLat {
			t.Errorf("accepted an inverted region %+v", r)
		}
	})
}

// TestBudgetFallback: zero or negative budget_ms falls back to the server
// default, observable through Trace.BudgetMs.
func TestBudgetFallback(t *testing.T) {
	s := testServer(t)
	for _, budget := range []float64{0, -25} {
		req := validRequest()
		req.BudgetMs = budget
		resp, err := s.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Trace.BudgetMs != 500 {
			t.Errorf("budget_ms=%v: effective budget %v, want default 500", budget, resp.Trace.BudgetMs)
		}
	}
	req := validRequest()
	req.BudgetMs = 750
	resp, err := s.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace.BudgetMs != 750 {
		t.Errorf("explicit budget not honored: %v", resp.Trace.BudgetMs)
	}
}

// TestCachedResponsesByteIdentical: warm-cache responses and responses from
// a cache-disabled server are byte-for-byte identical to the cold path.
func TestCachedResponsesByteIdentical(t *testing.T) {
	cached := testServer(t)
	ds := cached.DS
	uncached, err := NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(),
		ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}

	reqs := []Request{validRequest()}
	scatter := validRequest()
	scatter.Kind = VizScatter
	reqs = append(reqs, scatter)

	for i, req := range reqs {
		cold, err := cached.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := cached.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := uncached.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		coldB, _ := json.Marshal(cold)
		warmB, _ := json.Marshal(warm)
		plainB, _ := json.Marshal(plain)
		if !bytes.Equal(coldB, warmB) {
			t.Errorf("req %d: warm response differs from cold\ncold %s\nwarm %s", i, coldB, warmB)
		}
		if !bytes.Equal(coldB, plainB) {
			t.Errorf("req %d: cache-disabled response differs from cached\ncached   %s\nuncached %s", i, coldB, plainB)
		}
	}
	snap := cached.Metrics().Snapshot()
	if snap.ResultHits == 0 || snap.PlanHits == 0 {
		t.Errorf("caches were not exercised: %+v", snap)
	}
}

// TestCountedServingMatchesExecution: the miss that builds a plan serves the
// exact option it chose from the rows the build counted (engine.Counter); a
// request whose plan is already cached executes the chosen plan. Both give
// byte-identical responses for every viz kind, on empty, small and large
// answers.
func TestCountedServingMatchesExecution(t *testing.T) {
	executed := testServer(t)
	counted, err := NewServerWithConfig(executed.DS, core.OracleRewriter{}, core.HintOnlySpec(),
		ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(s *Server, req Request) planned {
		t.Helper()
		s.DS.DB.RLockData()
		defer s.DS.DB.RUnlockData()
		p, err := s.plan(req, false)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wide := validRequest()
	wide.Keyword = "word0002"
	wide.From = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	wide.To = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	small := validRequest()
	small.Region = engine.Rect{MinLon: -100, MinLat: 35, MaxLon: -95, MaxLat: 40}
	none := validRequest()
	none.From = time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	none.To = time.Date(2010, 2, 1, 0, 0, 0, 0, time.UTC)
	nonEmpty := 0
	for _, kind := range []VizKind{VizHeatmap, VizScatter, VizCount, VizDistinct} {
		for i, req := range []Request{validRequest(), wide, small, none} {
			req.Kind = kind
			// Without a plan cache every request builds its plan, so it counts.
			if p := resolve(counted, req); p.counter == nil {
				t.Fatalf("%s request %d: not served from the build's count", kind, i)
			}
			got, _, err := counted.handle(context.Background(), req, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := executed.ResultKeyFor(req); err != nil {
				t.Fatal(err)
			}
			if p := resolve(executed, req); p.counter != nil {
				t.Fatalf("%s request %d: a plan-cache hit holds a count", kind, i)
			}
			want, _, err := executed.handle(context.Background(), req, false)
			if err != nil {
				t.Fatal(err)
			}
			gotB, _ := json.Marshal(got)
			wantB, _ := json.Marshal(want)
			if !bytes.Equal(gotB, wantB) {
				t.Errorf("%s request %d: counted response differs from the executed one\ncounted  %s\nexecuted %s", kind, i, gotB, wantB)
			}
			if len(got.Bins) > 0 || len(got.Points) > 0 || got.Value != nil && *got.Value > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every answer was empty: the comparison exercised nothing")
	}
}

// TestHealthzAndMetricsEndpoints: the observability endpoints respond and
// carry the serving counters.
func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hr.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}

	// Serve one request, then check it shows up in both metrics formats.
	body, _ := json.Marshal(map[string]any{"keyword": "word0005", "kind": "heatmap",
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat})
	resp, err := http.Post(srv.URL+"/viz", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /viz = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}

	mr, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests != 1 || snap.OK != 1 || snap.LatencyCount != 1 {
		t.Errorf("snapshot counters: %+v", snap)
	}

	pr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(pr.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"maliva_requests_total 1",
		`maliva_responses_total{code="2xx"} 1`,
		"maliva_plan_cache_misses_total 1",
		`maliva_request_latency_ms{quantile="0.95"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

// TestCountServingExact: a count request's value is the matched-row count,
// the same whether a caching server or a cache-less one serves it.
func TestCountServingExact(t *testing.T) {
	subject, reference := subsumeServers(t)
	req := Request{
		Keyword: "word0003",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Kind:    VizCount,
	}
	got, err := subject.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value == nil || want.Value == nil {
		t.Fatal("count response missing value")
	}
	if *got.Value <= 0 || *got.Value != *want.Value {
		t.Fatalf("count = %v, cache-less server %v; want equal and positive", *got.Value, *want.Value)
	}
}

// TestDistinctServingExact: a distinct request counts the distinct words of
// the rows inside exactly its own window — here one that starts and ends
// mid-week — whether a caching server or a cache-less one serves it.
func TestDistinctServingExact(t *testing.T) {
	subject, reference := subsumeServers(t)
	req := Request{
		From: time.Date(2016, 3, 3, 5, 0, 0, 0, time.UTC),
		To:   time.Date(2016, 4, 14, 13, 30, 0, 0, time.UTC),
		Kind: VizDistinct,
	}
	tb := subject.DS.DB.Table(subject.DS.Main)
	window := engine.Predicate{Col: "created_at", Kind: engine.PredRange,
		Lo: float64(req.From.UnixMilli()), Hi: float64(req.To.UnixMilli())}
	var rows []uint32
	for r := 0; r < tb.Rows; r++ {
		if window.Eval(tb, uint32(r)) {
			rows = append(rows, uint32(r))
		}
	}
	exact := float64(engine.DistinctWordsExact(tb, rows, "text"))
	if exact == 0 {
		t.Fatal("the window holds no words: the test exercises nothing")
	}
	for name, s := range map[string]*Server{"caching": subject, "cache-less": reference} {
		resp, err := s.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Value == nil {
			t.Fatalf("%s server: distinct response has no value", name)
		}
		if *resp.Value != exact {
			t.Errorf("%s server: distinct value %v, want %v (the words of the request's own window)", name, *resp.Value, exact)
		}
	}
}

// TestDistinctWithoutTextColumn: a distinct request against a dataset with no
// text column is a client error, not a panic or a zero.
func TestDistinctWithoutTextColumn(t *testing.T) {
	srv := testServer(t)
	srv.textCol = "" // simulate a text-less dataset without building one
	req := Request{
		From: time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:   time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Kind: VizDistinct,
	}
	if _, err := srv.Handle(req); err == nil {
		t.Fatal("distinct request on a text-less dataset succeeded")
	}
}
