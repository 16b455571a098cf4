package middleware

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
)

// serveVizBody sends one /viz body through h and returns its X-Cache header
// and body, failing on any status but 200.
func serveVizBody(t testing.TB, h http.Handler, body []byte) (string, []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/viz", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	return w.Header().Get("X-Cache"), w.Body.Bytes()
}

// freshEncode is the serving layer's streaming encode of resp.
func freshEncode(t testing.TB, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stored reports whether resp holds stored bytes.
func stored(resp *Response) bool { return resp.body.Load() != nil }

// TestStoredBytesMatchEncode: whatever path serves a result — a miss, a
// containment slice, the first result-cache hit (which stores the bytes) or
// a later hit (which writes them) — the body is exactly the streaming encode
// of the response the server holds, and of the response a cache-less server
// computes. Only a result-cache hit stores bytes. Covered: every golden
// request, all four kinds, a subsumed slice, an entry filled from a peer's
// wire bytes, and 32 concurrent first hits on one key.
func TestStoredBytesMatchEncode(t *testing.T) {
	ds := testDataset(t)
	g, s := oneDatasetGateway(t, ds, core.OracleRewriter{}, ServerConfig{DefaultBudgetMs: 500})
	reference, err := NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(),
		ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()
	held := func(req Request) *Response {
		t.Helper()
		key, err := s.ResultKeyFor(req)
		if err != nil {
			t.Fatal(err)
		}
		resp := s.results.Get(key)
		if resp == nil {
			t.Fatal("served result is not in the result cache")
		}
		return resp
	}
	direct := func(req Request) []byte {
		t.Helper()
		resp, err := reference.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		return freshEncode(t, resp)
	}
	// check serves req three times, first from src and then twice from the
	// result cache, and holds every body to the fresh encode.
	check := func(name string, req Request, src source) {
		t.Helper()
		body := vizBody(t, req)
		want := direct(req)
		for i := 0; i < 3; i++ {
			xc, got := serveVizBody(t, h, body)
			resp := held(req)
			wantCache := "hit"
			if i == 0 && src == computed {
				wantCache = "miss"
			}
			if xc != wantCache {
				t.Errorf("%s, serve %d: X-Cache %q, want %q", name, i, xc, wantCache)
			}
			if enc := freshEncode(t, resp); !bytes.Equal(got, enc) {
				t.Errorf("%s, serve %d: body differs from the held response's encode\n got %s\nwant %s", name, i, got, enc)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, serve %d: body differs from a cache-less server's\n got %s\nwant %s", name, i, got, want)
			}
			if wantStored := i > 0 || src == fromCache; stored(resp) != wantStored {
				t.Errorf("%s, serve %d: stored bytes %v, want %v (only a result-cache hit stores)", name, i, stored(resp), wantStored)
			}
		}
	}

	reqs := goldenRequests()
	for _, kind := range []VizKind{VizCount, VizDistinct} {
		req := validRequest()
		req.Kind = kind
		reqs = append(reqs, req)
	}
	for _, req := range reqs {
		check(string(req.Kind)+" "+req.Keyword, req, computed)
	}

	// A containment slice streams; the slice it cached stores on its first hit.
	parent := validRequest()
	parent.Keyword = "word0003"
	if _, err := s.Handle(parent); err != nil {
		t.Fatal(err)
	}
	ext := parent.Region
	cellW := (ext.MaxLon - ext.MinLon) / float64(parent.GridW)
	cellH := (ext.MaxLat - ext.MinLat) / float64(parent.GridH)
	sub := parent
	sub.GridW, sub.GridH = 6, 4
	sub.Region = engine.Rect{
		MinLon: ext.MinLon + 3*cellW, MinLat: ext.MinLat + 2*cellH,
		MaxLon: ext.MinLon + 9*cellW, MaxLat: ext.MinLat + 6*cellH,
	}
	before := s.Metrics().Snapshot().SubsumedHits
	check("subsumed slice", sub, sliced)
	if d := s.Metrics().Snapshot().SubsumedHits - before; d != 1 {
		t.Errorf("subsumed hits delta %d, want 1: the slice case exercised nothing", d)
	}

	// A peer fill: the entry is a response decoded from another server's
	// wire bytes. A hit writes this server's own encode of it.
	filled := validRequest()
	filled.Keyword = "word0007"
	wire := direct(filled)
	var decoded Response
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	key, err := s.ResultKeyFor(filled)
	if err != nil {
		t.Fatal(err)
	}
	s.results.Put(key, &decoded)
	check("peer-filled entry", filled, fromCache)
	if !stored(&decoded) {
		t.Error("a hit on the peer-filled entry stored nothing")
	}

	// Concurrent first hits on one fresh key all write the same bytes.
	fresh := validRequest()
	fresh.Keyword = "word0009"
	if _, err := s.Handle(fresh); err != nil {
		t.Fatal(err)
	}
	want := freshEncode(t, held(fresh))
	body := vizBody(t, fresh)
	const hitters = 32
	bodies := make([][]byte, hitters)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/viz", bytes.NewReader(body)))
			bodies[i] = w.Body.Bytes()
		}()
	}
	wg.Wait()
	for i, got := range bodies {
		if !bytes.Equal(got, want) {
			t.Fatalf("concurrent first hit %d: body differs from the fresh encode\n got %s\nwant %s", i, got, want)
		}
	}
	if !stored(held(fresh)) {
		t.Error("32 first hits stored nothing")
	}
}

// hitWriter is a reusable http.ResponseWriter that keeps only the status.
type hitWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *hitWriter) Header() http.Header  { return w.header }
func (w *hitWriter) WriteHeader(code int) { w.code = code }
func (w *hitWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// TestAllocGuardWarmHit: a result-cache hit through Gateway.Handler —
// routing, decode, admission, plan, probe and the stored-bytes write — stays
// under a ceiling set just above its measured count: 82 objects with Go 1.24
// on linux/amd64, where streaming the same 16×8 heatmap through the encoder
// on every hit cost 140.
func TestAllocGuardWarmHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	g, _ := oneTwitterGateway(t)
	h := g.Handler()
	body := vizBody(t, validRequest())
	rd := bytes.NewReader(body)
	nop := io.NopCloser(rd)
	req := httptest.NewRequest(http.MethodPost, "/viz", nil)
	w := &hitWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body = nop
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
	}
	serve() // the miss
	serve() // the first hit stores the bytes
	if w.code != http.StatusOK || w.header.Get("X-Cache") != "hit" || w.n == 0 {
		t.Fatalf("warm request: status %d, X-Cache %q, %d bytes", w.code, w.header.Get("X-Cache"), w.n)
	}
	const ceiling = 84
	if got := testing.AllocsPerRun(100, serve); got > ceiling {
		t.Errorf("warm hit allocates %.0f objects, ceiling %d", got, ceiling)
	}
}
