package middleware

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// statusClientClosedRequest is the nginx-convention status for requests
// whose client disconnected before the response was ready (there is no
// standard code; 499 is the de-facto one).
const statusClientClosedRequest = 499

// Request-body bounds, enforced with http.MaxBytesReader before any work so
// an oversized payload cannot consume memory outside the admission
// accounting. The cluster tier applies the same two bounds at the router and
// on its peer endpoints (a fetch key is request-sized, a fill carries a
// response).
const (
	MaxVizBody    = 1 << 20 // /viz requests, peer fetch keys
	MaxIngestBody = 8 << 20 // /ingest batches, peer fills
)

// maxGridSide bounds grid_w and grid_h from the wire. The cell index is
// y*W+x in int, ResultKey.Hash keeps the low 32 bits of each side, and the
// session tracker's parent-tile prediction doubles them — an unbounded grid
// overflows all three. Nothing legitimate comes close (defaults are 64, the
// tile lattice tops out at 128).
const maxGridSide = 4096

// httpRequest is the JSON wire format of a visualization request. The
// decoders do not disallow unknown fields: a body carrying one, such as a
// `"hint"` string, still decodes and the field is ignored. Every answer is
// at the current data version.
type httpRequest struct {
	Keyword  string  `json:"keyword"`
	From     string  `json:"from"` // RFC 3339
	To       string  `json:"to"`
	MinLon   float64 `json:"min_lon"`
	MinLat   float64 `json:"min_lat"`
	MaxLon   float64 `json:"max_lon"`
	MaxLat   float64 `json:"max_lat"`
	Kind     string  `json:"kind"`
	GridW    int     `json:"grid_w"`
	GridH    int     `json:"grid_h"`
	BudgetMs float64 `json:"budget_ms"`
}

// ParseRequest decodes the /viz JSON wire format into a Request. It is the
// exact decode path Server.Handler uses, exported so the cluster routing
// tier can interpret a request body the same way the serving replica will
// (the unified-key-space routing in internal/cluster depends on both sides
// agreeing on this normalization).
func ParseRequest(body []byte) (Request, error) {
	var hreq httpRequest
	if err := json.Unmarshal(body, &hreq); err != nil {
		return Request{}, err
	}
	return hreq.toRequest()
}

// Handler returns an http.Handler serving:
//
//	POST /viz      — visualization requests (admission-controlled)
//	POST /ingest   — append rows through the adaptive write batcher
//	GET  /healthz  — liveness probe; status reflects the lifecycle
//	                 ("ok" / "draining" / "closed")
//	GET  /metrics  — Prometheus text format; ?format=json for a snapshot
//
// Every route runs under the panic-recovery middleware: a panicking request
// becomes a 500 plus a maliva_panics_total{handler=...} increment, never a
// dead process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", recoverPanics(s.metrics, "healthz", s.serveHealthz))
	mux.HandleFunc("GET /metrics", recoverPanics(s.metrics, "metrics", func(w http.ResponseWriter, r *http.Request) {
		depth := s.admit.queueLen()
		if r.URL.Query().Get("format") == "json" {
			snap := s.metrics.Snapshot()
			snap.QueueDepthLive = depth
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.WritePrometheus(w)
		writeQueueDepth(w, depth)
	}))
	mux.HandleFunc("POST /viz", recoverPanics(s.metrics, "viz", func(w http.ResponseWriter, r *http.Request) {
		s.serveViz(w, r)
	}))
	mux.HandleFunc("POST /ingest", recoverPanics(s.metrics, "ingest", s.serveIngest))
	return mux
}

// serveHealthz reports liveness plus the lifecycle state. Draining and
// closed servers answer 503 so health-checked load balancers fail over
// before the listener disappears.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	status := lifecycleStatus(s.state.Load())
	w.Header().Set("Content-Type", "application/json")
	if status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":     status,
		"uptime_sec": time.Since(s.metrics.start).Seconds(),
	})
}

// writeQueueDepth emits the admission queue-depth gauge. Only live requests
// ever queue; the lane label keeps the series name stable for dashboards.
func writeQueueDepth(w io.Writer, live int) {
	fmt.Fprintf(w, "maliva_admission_queue_depth{lane=\"live\"} %d\n", live)
}

// serveViz decodes, admits, serves, and encodes one /viz request. It
// returns the decoded request and whether it was answered 200, which is what
// the gateway's session tracker observes.
func (s *Server) serveViz(w http.ResponseWriter, r *http.Request) (Request, bool) {
	s.metrics.requests.Add(1)
	if s.Draining() {
		s.rejectDraining(w)
		return Request{}, false
	}
	s.fault("viz")
	req, err := decodeViz(w, r)
	if err != nil {
		s.metrics.clientErr.Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return req, false
	}

	// Admission: wait for a worker slot at most min(QueueTimeout, the
	// request's budget read as real milliseconds). The budget measures
	// virtual engine time, not wall clock, but it is the client's
	// latency-sensitivity signal — tight-budget requests shed first under
	// overload. A small floor keeps tiny budgets from being rejected
	// spuriously when the warm path would serve them in microseconds.
	const minQueueWait = 10 * time.Millisecond
	// The comparison stays in float: converting a huge budget to a Duration
	// first would overflow to a negative wait.
	budget := s.effectiveBudget(req) * float64(time.Millisecond)
	wait := s.cfg.QueueTimeout
	if budget < float64(wait) {
		wait = time.Duration(budget)
	}
	if wait < minQueueWait {
		wait = minQueueWait
	}
	switch s.admit.acquire(wait) {
	case admitBusy:
		s.metrics.rejectBusy.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded: queue full", http.StatusTooManyRequests)
		return req, false
	case admitTimeout:
		s.metrics.rejectWait.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded: no capacity within the request deadline", http.StatusServiceUnavailable)
		return req, false
	}
	defer s.admit.release()

	start := time.Now()
	resp, src, err := s.handle(r.Context(), req, false)
	s.metrics.latency.observe(time.Since(start))
	if err != nil {
		switch {
		case errors.Is(err, ErrBadRequest):
			s.metrics.clientErr.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, ErrCanceled):
			// The client is gone; the status code is for the access log only
			// (nginx's 499 convention). Not a server error — nothing failed.
			http.Error(w, err.Error(), statusClientClosedRequest)
		default:
			s.metrics.serverErr.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return req, false
	}
	s.metrics.ok.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if src == computed {
		w.Header().Set("X-Cache", "miss")
	} else {
		w.Header().Set("X-Cache", "hit")
	}
	// A result-cache hit is a result asked for twice, so it writes (and on
	// its first write keeps) stored bytes; a miss or a slice streams. A
	// write error leaves nothing to do: the headers are already sent.
	if src == fromCache {
		_ = resp.WriteJSON(w)
	} else {
		_ = json.NewEncoder(w).Encode(resp)
	}
	return req, true
}

// WriteJSON writes r's JSON encoding to w: exactly the bytes
// json.NewEncoder(w).Encode(r) writes, HTML escaping and trailing newline
// included. The first call encodes and keeps the bytes on r; every later
// call writes the kept bytes without encoding. Concurrent first calls agree
// through CompareAndSwap: all of them write the first kept encoding.
//
// The bytes are never invalidated, so call it only on a response that is
// immutable from here on — one read back from a result cache. The serving
// paths do: a /viz result-cache hit and a /cluster/fetch answer. A miss
// streams through the encoder instead, so a result that is never asked for
// twice keeps no bytes.
func (r *Response) WriteJSON(w io.Writer) error {
	b, _ := r.body.Load().([]byte)
	if b == nil {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			return err
		}
		// Clone trims the buffer's growth slack: the bytes live as long as
		// the cache entry.
		b = bytes.Clone(buf.Bytes())
		if !r.body.CompareAndSwap(nil, b) {
			b = r.body.Load().([]byte)
		}
	}
	_, err := w.Write(b)
	return err
}

// decodeViz bounds and decodes one /viz body.
func decodeViz(w http.ResponseWriter, r *http.Request) (Request, error) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxVizBody)
	var hreq httpRequest
	if err := json.NewDecoder(r.Body).Decode(&hreq); err != nil {
		return Request{}, err
	}
	return hreq.toRequest()
}

func (h httpRequest) toRequest() (Request, error) {
	if h.GridW > maxGridSide || h.GridH > maxGridSide {
		return Request{}, fmt.Errorf("grid %dx%d exceeds %d cells per side", h.GridW, h.GridH, maxGridSide)
	}
	req := Request{
		Keyword:  h.Keyword,
		Kind:     VizKind(h.Kind),
		GridW:    h.GridW,
		GridH:    h.GridH,
		BudgetMs: h.BudgetMs,
	}
	if h.From != "" {
		t, err := time.Parse(time.RFC3339, h.From)
		if err != nil {
			return req, err
		}
		req.From = t
	}
	if h.To != "" {
		t, err := time.Parse(time.RFC3339, h.To)
		if err != nil {
			return req, err
		}
		req.To = t
	}
	req.Region.MinLon, req.Region.MinLat = h.MinLon, h.MinLat
	req.Region.MaxLon, req.Region.MaxLat = h.MaxLon, h.MaxLat
	return req, nil
}

// httpIngest is the JSON wire format of an ingest request: rows keyed by
// column name (time columns as RFC 3339 strings, point columns as [lon,lat],
// text columns as whitespace-separated words). sync forces a flush before
// responding, so the rows — and the cache invalidation the flush implies —
// are visible when the call returns.
type httpIngest struct {
	Rows []map[string]any `json:"rows"`
	Sync bool             `json:"sync"`
}

// serveIngest decodes and applies one POST /ingest request.
func (s *Server) serveIngest(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.rejectDraining(w)
		return
	}
	s.fault("ingest")
	r.Body = http.MaxBytesReader(w, r.Body, MaxIngestBody)
	var hin httpIngest
	if err := json.NewDecoder(r.Body).Decode(&hin); err != nil {
		s.metrics.clientErr.Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(hin.Rows) == 0 {
		s.metrics.clientErr.Add(1)
		http.Error(w, "bad request: no rows", http.StatusBadRequest)
		return
	}
	res, err := s.Ingest(hin.Rows, hin.Sync)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			s.rejectDraining(w)
		case errors.Is(err, ErrBadRequest):
			s.metrics.clientErr.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			s.metrics.serverErr.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}
