package middleware

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/workload"
)

// freshIngestServer builds a middleware over its own private copy of the
// tiny Twitter dataset (ingest mutates the dataset, so these tests never
// share one) with explicit serving knobs.
func freshIngestServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	wc := workload.TwitterConfig()
	wc.Rows = 8_000
	wc.Scale = 100e6 / float64(wc.Rows)
	ds, err := workload.Twitter(wc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingestRequests is a small mix of shapes that exercise keyword, time, and
// geo predicates at different grids.
func ingestRequests() []Request {
	reqs := make([]Request, 0, 6)
	for i := 0; i < 3; i++ {
		r := validRequest()
		r.Keyword = fmt.Sprintf("word%04d", 5+i)
		reqs = append(reqs, r)
		r.GridW, r.GridH = 8, 8
		r.Kind = VizScatter
		reqs = append(reqs, r)
	}
	return reqs
}

// TestReadsDuringIngestByteIdentity is the stale-read acceptance test: a
// fully cached server under live ingestion answers, after every flush,
// byte-identically to a cache-free server that replayed the same row stream
// to the same data version — while concurrent readers race the flushes and
// the flush hook's reclamation of every older version's plans, results and
// containment families. Run with -race.
func TestReadsDuringIngestByteIdentity(t *testing.T) {
	live := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500})
	oracle := freshIngestServer(t, ServerConfig{
		DefaultBudgetMs: 500,
		PlanCacheSize:   -1,
		ResultCacheSize: -1,
	})
	stream, err := workload.NewIngestStream(live.DS, 42)
	if err != nil {
		t.Fatal(err)
	}
	reqs := ingestRequests()

	// Background readers hammer the live server across flush boundaries.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := live.Handle(reqs[(w+i)%len(reqs)]); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 12; round++ {
		rows := stream.Next(64)
		ra, err := live.Ingest(rows, true)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := oracle.Ingest(rows, true)
		if err != nil {
			t.Fatal(err)
		}
		if !ra.Flushed || !rb.Flushed || ra.Version != rb.Version {
			t.Fatalf("round %d: live=(v%d flushed=%v) oracle=(v%d flushed=%v), want same flushed version",
				round, ra.Version, ra.Flushed, rb.Version, rb.Flushed)
		}
		for i, req := range reqs {
			got, err := live.Handle(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Handle(req)
			if err != nil {
				t.Fatal(err)
			}
			jg, _ := json.Marshal(got)
			jw, _ := json.Marshal(want)
			if !bytes.Equal(jg, jw) {
				t.Errorf("round %d req %d (v%d): STALE READ — cached server diverges from replay\n got %s\nwant %s",
					round, i, ra.Version, jg, jw)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestIngestEndpoint drives POST /ingest through the HTTP surface and
// verifies the flush is visible to an immediately following /viz request.
func TestIngestEndpoint(t *testing.T) {
	s := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stream, err := workload.NewIngestStream(s.DS, 3)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"rows": stream.Next(10), "sync": true})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 10 || !res.Flushed || res.Version != 1 || res.Pending != 0 {
		t.Errorf("result = %+v, want 10 rows flushed at v1", res)
	}
	if got := s.DS.DB.Table(s.DS.Main).Rows; got != 8_010 {
		t.Errorf("table rows = %d, want 8010", got)
	}

	// Async: rows buffer, version does not move yet (MaxDelay default 200ms
	// means the flush happens soon after, but Pending reflects the buffer at
	// response time).
	body, _ = json.Marshal(map[string]any{"rows": stream.Next(5)})
	resp2, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Flushed || res.Pending != 5 {
		t.Errorf("async result = %+v, want 5 pending unflushed", res)
	}

	// Bad payloads.
	for _, bad := range []string{`{}`, `{"rows":[]}`, `{"rows":[{"nope":1}]}`, `not json`} {
		r, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", bad, r.StatusCode)
		}
	}
}

// TestRejectedIngestLeavesVocabulary: an /ingest body rejected for a bad
// cell interns none of its words. A keyword only that body carried stays
// unknown, so /viz for it is still a 400, and the vocabulary a WAL replay of
// the accepted batches rebuilds is the one the server serves from.
func TestRejectedIngestLeavesVocabulary(t *testing.T) {
	s := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const word = "zzrejectedword"
	vocab := s.table.Vocab
	words := vocab.Len()

	stream, err := workload.NewIngestStream(s.DS, 5)
	if err != nil {
		t.Fatal(err)
	}
	row := stream.Next(1)[0]
	row["text"] = word
	delete(row, "coordinates") // converted after the text column
	body, _ := json.Marshal(map[string]any{"rows": []any{row}, "sync": true})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest without coordinates: status %d, want 400", resp.StatusCode)
	}
	if id := vocab.ID(word); id != 0 || vocab.Len() != words {
		t.Fatalf("rejected ingest interned %q as id %d (vocabulary %d → %d words)", word, id, words, vocab.Len())
	}

	body, _ = json.Marshal(map[string]any{
		"keyword": word,
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
	})
	resp, err = http.Post(ts.URL+"/viz", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/viz for the rejected word: status %d, want 400", resp.StatusCode)
	}
}

// TestHintNeverServesAnOlderVersion: the wire's old `/* ttl:N */` staleness
// hint is an unknown field now. After a flush, a /viz body carrying it is
// answered byte for byte like the same body without it, and like a server
// with no caches at all — never from the pre-flush entry still in memory.
func TestHintNeverServesAnOlderVersion(t *testing.T) {
	live := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500})
	uncached := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	lts, uts := httptest.NewServer(live.Handler()), httptest.NewServer(uncached.Handler())
	defer lts.Close()
	defer uts.Close()
	body := map[string]any{
		"keyword": "word0005",
		"min_lon": workload.USExtent.MinLon, "min_lat": workload.USExtent.MinLat,
		"max_lon": workload.USExtent.MaxLon, "max_lat": workload.USExtent.MaxLat,
		"kind": "heatmap", "grid_w": 16, "grid_h": 8,
	}
	plain, _ := json.Marshal(body)
	body["hint"] = "/* ttl:60 */"
	hinted, _ := json.Marshal(body)
	post := func(url string, b []byte) []byte {
		t.Helper()
		resp, err := http.Post(url+"/viz", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/viz: status %d err %v: %s", resp.StatusCode, err, out)
		}
		return out
	}

	before := post(lts.URL, hinted) // cached at v0
	stream, err := workload.NewIngestStream(live.DS, 13)
	if err != nil {
		t.Fatal(err)
	}
	rows := stream.Next(64)
	for _, row := range rows {
		row["text"] = "word0005"
	}
	for _, s := range []*Server{live, uncached} {
		if _, err := s.Ingest(rows, true); err != nil {
			t.Fatal(err)
		}
	}

	got, want := post(lts.URL, hinted), post(uts.URL, plain)
	if bytes.Equal(before, want) {
		t.Fatal("the flush did not change the answer; the test cannot tell versions apart")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("hinted body after a flush diverges from an uncached server\n got %s\nwant %s", got, want)
	}
	if again := post(lts.URL, plain); !bytes.Equal(again, got) {
		t.Errorf("hinted and plain bodies diverge\nhinted %s\n plain %s", got, again)
	}
}

// TestIngestOnClosedServerIsDraining: an Ingest after Close converts nothing
// — the vocabulary keeps its size — and reports ErrDraining, never a client
// error; over HTTP it is a 503 with Retry-After.
func TestIngestOnClosedServerIsDraining(t *testing.T) {
	s := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	stream, err := workload.NewIngestStream(s.DS, 5)
	if err != nil {
		t.Fatal(err)
	}
	rows := stream.Next(1)
	rows[0]["text"] = "zzclosedword"
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	words := s.table.Vocab.Len()

	_, err = s.Ingest(rows, true)
	if !errors.Is(err, ErrDraining) || errors.Is(err, ErrBadRequest) {
		t.Fatalf("Ingest after Close: err = %v, want ErrDraining and no ErrBadRequest", err)
	}
	if got := s.table.Vocab.Len(); got != words {
		t.Fatalf("Ingest after Close grew the vocabulary %d → %d", words, got)
	}

	body, _ := json.Marshal(map[string]any{"rows": rows, "sync": true})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("/ingest after Close: status %d Retry-After %q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestResultKeyHashGridPacking pins the grid-packing fix: GridW and GridH
// are masked to 32 bits before packing, so their bit ranges cannot overlap,
// and the data version participates in the hash.
func TestResultKeyHashGridPacking(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("grid overflow packing needs 64-bit int")
	}
	base := ResultKey{SQL: "SELECT x", Kind: VizHeatmap, Budget: 500}
	a, b := base, base
	a.GridW, a.GridH = 1, 0
	b.GridW, b.GridH = 0, int(int64(1)<<32) // pre-fix: packs onto GridW's bits
	if a.Hash() == b.Hash() {
		t.Error("GridH overflowed into GridW's bit range")
	}
	c, d := base, base
	c.GridW, c.GridH = 16, 8
	d.GridW, d.GridH = 8, 16
	if c.Hash() == d.Hash() {
		t.Error("transposed grids collide")
	}
	v0, v1 := base, base
	v1.DataVersion = 1
	if v0.Hash() == v1.Hash() {
		t.Error("data version does not participate in the hash")
	}
}

// TestPlanCacheVersionKeyed: a flush retires pre-flush plan-cache contexts —
// the post-flush request re-plans against fresh ground truth instead of
// reusing a stale context.
func TestPlanCacheVersionKeyed(t *testing.T) {
	s := freshIngestServer(t, ServerConfig{DefaultBudgetMs: 500})
	stream, err := workload.NewIngestStream(s.DS, 5)
	if err != nil {
		t.Fatal(err)
	}
	req := validRequest()
	if _, err := s.Handle(req); err != nil {
		t.Fatal(err)
	}
	misses := s.metrics.planMisses.Load()
	if _, err := s.Handle(req); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.planMisses.Load(); got != misses {
		t.Fatalf("repeat at same version re-planned (misses %d → %d)", misses, got)
	}
	if _, err := s.Ingest(stream.Next(16), true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(req); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.planMisses.Load(); got != misses+1 {
		t.Errorf("post-flush plan misses = %d, want %d (stale context reused)", got, misses+1)
	}
}
