package middleware

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets is the number of exponential histogram buckets. Bucket i
// covers latencies below latencyBase·2^i; the last bucket is unbounded.
// With base 50µs that spans 50µs … ~27min, far beyond any sane request.
const (
	latencyBuckets = 25
	latencyBase    = 50 * time.Microsecond
)

// latencyHist is a lock-free fixed-bucket latency histogram. Quantiles are
// estimated by linear interpolation inside the matched bucket, which is
// plenty for serving dashboards (buckets are a factor of 2 wide).
type latencyHist struct {
	counts [latencyBuckets]atomic.Int64
	count  atomic.Int64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

// observe records one request latency.
func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := 0
	for bound := latencyBase; b < latencyBuckets-1 && d >= bound; bound *= 2 {
		b++
	}
	h.counts[b].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// quantile estimates the q-quantile (q in [0,1]) in milliseconds.
func (h *latencyHist) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	lower := time.Duration(0)
	upper := latencyBase
	for b := 0; b < latencyBuckets; b++ {
		c := float64(h.counts[b].Load())
		if seen+c >= rank && c > 0 {
			frac := (rank - seen) / c
			if frac < 0 {
				frac = 0
			}
			width := float64(upper - lower)
			if b == latencyBuckets-1 {
				// Unbounded bucket: report its lower edge (capped by max).
				width = 0
			}
			ms := (float64(lower) + frac*width) / float64(time.Millisecond)
			maxMs := float64(h.maxNs.Load()) / float64(time.Millisecond)
			return math.Min(ms, maxMs)
		}
		seen += c
		lower = upper
		upper *= 2
	}
	return float64(h.maxNs.Load()) / float64(time.Millisecond)
}

// Metrics aggregates serving-layer counters. All fields are updated with
// atomics, so one Metrics value is shared by every request goroutine.
type Metrics struct {
	start time.Time

	requests   atomic.Int64 // /viz requests received (before admission)
	ok         atomic.Int64 // 200s
	clientErr  atomic.Int64 // 4xx (malformed, unknown keyword, ...)
	serverErr  atomic.Int64 // 5xx
	rejectBusy atomic.Int64 // 429: queue full
	rejectWait atomic.Int64 // 503: deadline expired while queued

	planHits     atomic.Int64 // plan-cache hits (context reused)
	planMisses   atomic.Int64 // plan-cache misses (BuildContext ran)
	resultHits   atomic.Int64
	resultMisses atomic.Int64
	staleHits    atomic.Int64 // result hits served from an older version via ttl hint

	subsumedHits atomic.Int64 // requests answered by slicing a containing result

	prefetchIssued   atomic.Int64 // speculative requests offered to admission
	prefetchShed     atomic.Int64 // prefetches dropped by admission (no idle capacity)
	prefetchComputed atomic.Int64 // prefetches that executed (cache warmed)
	prefetchHits     atomic.Int64 // live requests served from a prefetched entry

	budgetViolations atomic.Int64 // served responses with Trace.Viable == false

	ingestRows    atomic.Int64 // rows accepted by the write path
	ingestFlushes atomic.Int64 // applied ingest flushes (data-version bumps)

	execCanceled  atomic.Int64 // executions aborted because the client went away
	drainRejected atomic.Int64 // requests refused while draining or closed

	// panics counts recovered handler/worker panics by handler name. Panics
	// are exceptional, so a mutex-guarded map (arbitrary labels, zero cost on
	// the request path until a panic actually happens) beats pre-declared
	// atomics here.
	panicsMu sync.Mutex
	panics   map[string]int64

	latency      latencyHist
	flushLatency latencyHist // ApplyBatch wall time per flush
}

// notePanic records one recovered panic under the given handler label.
func (m *Metrics) notePanic(handler string) {
	m.panicsMu.Lock()
	if m.panics == nil {
		m.panics = make(map[string]int64)
	}
	m.panics[handler]++
	m.panicsMu.Unlock()
}

// panicsSnapshot copies the per-handler panic counts.
func (m *Metrics) panicsSnapshot() map[string]int64 {
	m.panicsMu.Lock()
	defer m.panicsMu.Unlock()
	if len(m.panics) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m.panics))
	for k, v := range m.panics {
		out[k] = v
	}
	return out
}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// MetricsSnapshot is the JSON form of the counters, plus derived rates.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Requests     int64 `json:"requests"`
	OK           int64 `json:"ok"`
	ClientErr    int64 `json:"client_errors"`
	ServerErr    int64 `json:"server_errors"`
	RejectedBusy int64 `json:"rejected_busy"`
	RejectedWait int64 `json:"rejected_timeout"`

	PlanHits   int64 `json:"plan_cache_hits"`
	PlanMisses int64 `json:"plan_cache_misses"`
	// PlanCoalesced is always 0: concurrent misses on one shape each build.
	// It stays so readers of plan_cache_coalesced keep decoding.
	PlanCoalesced int64   `json:"plan_cache_coalesced"`
	PlanHitRate   float64 `json:"plan_cache_hit_rate"`
	ResultHits    int64   `json:"result_cache_hits"`
	ResultMisses  int64   `json:"result_cache_misses"`
	ResultHitRate float64 `json:"result_cache_hit_rate"`

	StaleHits int64 `json:"result_cache_stale_hits"`

	SubsumedHits int64 `json:"subsumed_hits"`
	// ExecCoalesced is always 0: concurrent identical requests each execute.
	// It stays so readers of exec_coalesced keep decoding.
	ExecCoalesced int64 `json:"exec_coalesced"`

	PrefetchIssued   int64 `json:"prefetch_issued"`
	PrefetchShed     int64 `json:"prefetch_shed"`
	PrefetchComputed int64 `json:"prefetch_computed"`
	PrefetchHits     int64 `json:"prefetch_hits"`

	// Admission queue depth — an instantaneous gauge filled in by the HTTP
	// layer (the admission pool is server- or gateway-scoped; Metrics itself
	// never sees it).
	QueueDepthLive int `json:"queue_depth_live"`

	BudgetViolations    int64   `json:"budget_violations"`
	BudgetViolationRate float64 `json:"budget_violation_rate"`

	IngestRows    int64 `json:"ingest_rows"`
	IngestFlushes int64 `json:"ingest_flushes"`

	ExecCanceled  int64            `json:"exec_canceled"`
	DrainRejected int64            `json:"drain_rejected"`
	Panics        map[string]int64 `json:"panics,omitempty"`

	FlushP50Ms float64 `json:"flush_latency_p50_ms"`
	FlushP95Ms float64 `json:"flush_latency_p95_ms"`
	FlushMaxMs float64 `json:"flush_latency_max_ms"`

	LatencyCount int64   `json:"latency_count"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`
	LatencyAvgMs float64 `json:"latency_avg_ms"`
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Snapshot captures the current counters and derived rates.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSec:    time.Since(m.start).Seconds(),
		Requests:     m.requests.Load(),
		OK:           m.ok.Load(),
		ClientErr:    m.clientErr.Load(),
		ServerErr:    m.serverErr.Load(),
		RejectedBusy: m.rejectBusy.Load(),
		RejectedWait: m.rejectWait.Load(),

		PlanHits:     m.planHits.Load(),
		PlanMisses:   m.planMisses.Load(),
		ResultHits:   m.resultHits.Load(),
		ResultMisses: m.resultMisses.Load(),

		StaleHits: m.staleHits.Load(),

		SubsumedHits: m.subsumedHits.Load(),

		PrefetchIssued:   m.prefetchIssued.Load(),
		PrefetchShed:     m.prefetchShed.Load(),
		PrefetchComputed: m.prefetchComputed.Load(),
		PrefetchHits:     m.prefetchHits.Load(),

		BudgetViolations: m.budgetViolations.Load(),

		IngestRows:    m.ingestRows.Load(),
		IngestFlushes: m.ingestFlushes.Load(),
		ExecCanceled:  m.execCanceled.Load(),
		DrainRejected: m.drainRejected.Load(),
		Panics:        m.panicsSnapshot(),
		FlushP50Ms:    m.flushLatency.quantile(0.50),
		FlushP95Ms:    m.flushLatency.quantile(0.95),
		FlushMaxMs:    float64(m.flushLatency.maxNs.Load()) / float64(time.Millisecond),

		LatencyCount: m.latency.count.Load(),
		LatencyP50Ms: m.latency.quantile(0.50),
		LatencyP95Ms: m.latency.quantile(0.95),
		LatencyP99Ms: m.latency.quantile(0.99),
		LatencyMaxMs: float64(m.latency.maxNs.Load()) / float64(time.Millisecond),
	}
	s.PlanHitRate = rate(s.PlanHits, s.PlanHits+s.PlanMisses)
	s.ResultHitRate = rate(s.ResultHits, s.ResultHits+s.ResultMisses)
	s.BudgetViolationRate = rate(s.BudgetViolations, s.OK)
	if s.LatencyCount > 0 {
		s.LatencyAvgMs = float64(m.latency.sumNs.Load()) / float64(s.LatencyCount) / float64(time.Millisecond)
	}
	return s
}

// WritePrometheus renders the counters in Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) { m.WritePrometheusLabeled(w, "") }

// WritePrometheusLabeled is WritePrometheus with an extra label pair (e.g.
// `dataset="twitter"`) injected into every series, so a gateway can expose
// per-dataset rollups on one endpoint. An empty label emits plain series.
func (m *Metrics) WritePrometheusLabeled(w io.Writer, label string) {
	s := m.Snapshot()
	p := func(name string, v float64) {
		if label != "" {
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i] + "{" + label + "," + name[i+1:]
			} else {
				name += "{" + label + "}"
			}
		}
		fmt.Fprintf(w, "maliva_%s %g\n", name, v)
	}
	p("uptime_seconds", s.UptimeSec)
	p("requests_total", float64(s.Requests))
	p(`responses_total{code="2xx"}`, float64(s.OK))
	p(`responses_total{code="4xx"}`, float64(s.ClientErr))
	p(`responses_total{code="5xx"}`, float64(s.ServerErr))
	p(`admission_rejected_total{reason="busy"}`, float64(s.RejectedBusy))
	p(`admission_rejected_total{reason="timeout"}`, float64(s.RejectedWait))
	p(`plan_cache_hits_total`, float64(s.PlanHits))
	p(`plan_cache_misses_total`, float64(s.PlanMisses))
	p(`plan_cache_hit_rate`, s.PlanHitRate)
	p(`result_cache_hits_total`, float64(s.ResultHits))
	p(`result_cache_misses_total`, float64(s.ResultMisses))
	p(`result_cache_hit_rate`, s.ResultHitRate)
	p(`result_cache_stale_hits_total`, float64(s.StaleHits))
	p(`subsumed_hits_total`, float64(s.SubsumedHits))
	p(`prefetch_issued_total`, float64(s.PrefetchIssued))
	p(`prefetch_hits_total`, float64(s.PrefetchHits))
	p(`prefetch_shed_total`, float64(s.PrefetchShed))
	p(`prefetch_computed_total`, float64(s.PrefetchComputed))
	p(`budget_violations_total`, float64(s.BudgetViolations))
	p(`budget_violation_rate`, s.BudgetViolationRate)
	p(`ingest_rows_total`, float64(s.IngestRows))
	p(`ingest_flushes_total`, float64(s.IngestFlushes))
	p(`exec_canceled_total`, float64(s.ExecCanceled))
	p(`drain_rejected_total`, float64(s.DrainRejected))
	handlers := make([]string, 0, len(s.Panics))
	for h := range s.Panics {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	for _, h := range handlers {
		p(fmt.Sprintf("panics_total{handler=%q}", h), float64(s.Panics[h]))
	}
	p(`ingest_flush_latency_ms{quantile="0.5"}`, s.FlushP50Ms)
	p(`ingest_flush_latency_ms{quantile="0.95"}`, s.FlushP95Ms)
	p(`ingest_flush_latency_ms{quantile="max"}`, s.FlushMaxMs)
	p(`request_latency_ms{quantile="0.5"}`, s.LatencyP50Ms)
	p(`request_latency_ms{quantile="0.95"}`, s.LatencyP95Ms)
	p(`request_latency_ms{quantile="0.99"}`, s.LatencyP99Ms)
	p(`request_latency_ms{quantile="max"}`, s.LatencyMaxMs)
	p(`request_latency_count`, float64(s.LatencyCount))
}
