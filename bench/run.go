package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/maliva/maliva/internal/middleware"
)

// setupRepeats is how many times a run builds its fixture.
const setupRepeats = 3

// execute performs one run of one workload: set-up, timed section,
// correctness gate and — on a traced run — the shadow replay, then prints
// and returns the run's metric set.
func execute(def workloadDef, o options, w io.Writer) (*result, error) {
	sz := fullSizing
	if o.smoke {
		sz = smokeSizing
	}
	header(w, def, o, sz)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}

	r := &run{name: def.name, seed: o.seed, n: countsFor(o.seconds, o.smoke)}
	if o.coldWarm > 0 {
		r.n.coldWarmup = o.coldWarm
	}
	if o.trace {
		r.spans = newTracer()
	}

	// Set-up: everything up to the first timed request. The fixture — the
	// part that is pure computation — is built setupRepeats times and enters
	// setup_s as the median build, so one descheduled second does not read
	// as a set-up regression; the regime warm-up after it runs once.
	repeats := setupRepeats
	if o.smoke {
		repeats = 1
	}
	var err error
	builds := make([]float64, repeats)
	stages := make(map[string][]float64)
	for i := range builds {
		t0 := time.Now()
		if r.fx, err = buildFixture(sz); err != nil {
			return nil, err
		}
		builds[i] = time.Since(t0).Seconds()
		for k, v := range r.fx.stages {
			stages[k] = append(stages[k], v)
		}
	}
	for k, v := range stages {
		r.fx.stages[k] = median(v)
	}
	rest0 := time.Now()
	if def.wal {
		// The log must be attached before the first server and the first row.
		if err := r.attachWAL(o.outDir); err != nil {
			return nil, fmt.Errorf("attaching WAL: %w", err)
		}
	}
	defer r.dropWAL()
	if r.gw, err = r.fx.startGateway(servingConfig()); err != nil {
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	defer r.gw.close()
	for i := 0; i < numClients(); i++ {
		c := newClient(r.gw.url)
		defer c.close()
		r.clients = append(r.clients, c)
	}
	warm0 := time.Now()
	if err := def.prepare(r); err != nil {
		return nil, err
	}
	r.warmupS = time.Since(warm0).Seconds()
	r.setupS = median(builds) + time.Since(rest0).Seconds()

	// Timed section, bracketed by the operator's own /metrics.
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	if err := def.timed(r); err != nil {
		return nil, err
	}
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	delta := since(after, before)
	for i, p := range r.passes {
		fmt.Fprintf(w, "# pass %d: %d req/s  p50 %.3f ms  p95 %.3f ms  mean %.3f ms  cpu %.3f ms/req\n", i, int(p.qps), p.p50Ms, p.p95Ms, p.meanMs, p.cpuMsReq)
	}

	// What the caches pin: live heap with the server still up.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	var regimeErr error
	if !o.smoke {
		regimeErr = def.regime(r, delta)
	}
	if err := r.verify(def.verify(r)); err != nil {
		return nil, err
	}

	if !o.trace {
		return report(w, endToEnd, r.endToEnd(), r.allOps(), regimeErr), nil
	}
	layers, err := r.traceLayers(def.replay(r), o.outDir)
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{r.fx.stages, delta} {
		for k, v := range part {
			layers[k] = v
		}
	}
	layers["middleware.warmup_s"] = r.warmupS
	sort.Float64s(r.ackMs)
	layers["middleware.ingest_ack_p95_ms"] = quantile(r.ackMs, 0.95)
	layers["bench.pass_spread_frac"] = r.passSpread()
	layers["bench.trace_overhead_frac"] = r.traceOverhead()
	return report(w, perLayer, layers, r.allOps(), regimeErr), nil
}

// endToEnd reduces the timed section to the end-to-end metric set.
func (r *run) endToEnd() map[string]float64 {
	pick := func(f func(passStats) float64) float64 {
		v := make([]float64, len(r.passes))
		for i, p := range r.passes {
			v[i] = f(p)
		}
		return median(v)
	}
	viable, virtual := 0, 0.0
	for _, s := range r.ops.samples {
		if s.viable {
			viable++
		}
		virtual += s.virtualMs
	}
	out := map[string]float64{
		"setup_s":         r.setupS,
		"qps":             pick(func(p passStats) float64 { return p.qps }),
		"latency_p50_ms":  pick(func(p passStats) float64 { return p.p50Ms }),
		"latency_p95_ms":  pick(func(p passStats) float64 { return p.p95Ms }),
		"latency_mean_ms": pick(func(p passStats) float64 { return p.meanMs }),
		"cpu_ms_per_req":  pick(func(p passStats) float64 { return p.cpuMsReq }),
		"heap_live_mb":    r.heapMiB,
	}
	// A request that failed or was refused is not viable: the denominator is
	// what was attempted, not what was answered.
	if r.ops.attempted > 0 {
		out["viable_frac"] = float64(viable) / float64(r.ops.attempted)
	}
	if n := len(r.ops.samples); n > 0 {
		out["virtual_ms_mean"] = virtual / float64(n)
	}
	return out
}

// allOps is every operation of the run: timed requests, ingest posts and
// verification comparisons.
func (r *run) allOps() tally {
	all := tally{}
	all.merge(&r.ops)
	all.merge(&r.side)
	all.samples = nil
	return all
}

// passSpread is (max − min) ÷ median of the per-pass qps: how far the timed
// passes sat from one regime. A pooled section has one pass and reads 0.
func (r *run) passSpread() float64 {
	if len(r.passes) < 2 {
		return 0
	}
	q := make([]float64, len(r.passes))
	for i, p := range r.passes {
		q[i] = p.qps
	}
	sort.Float64s(q)
	return (q[len(q)-1] - q[0]) / median(q)
}

// scrape reads the dataset's counters from the operator's own
// /metrics?format=json — the benchmark keeps no private counters.
func (r *run) scrape() (middleware.MetricsSnapshot, error) {
	resp, err := http.Get(r.gw.url + "/metrics?format=json")
	if err != nil {
		return middleware.MetricsSnapshot{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap middleware.GatewayMetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return middleware.MetricsSnapshot{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	ds, ok := snap.Datasets[datasetName]
	if !ok {
		return middleware.MetricsSnapshot{}, fmt.Errorf("/metrics has no dataset %q", datasetName)
	}
	return ds, nil
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metricsDelta is the server's own account of the timed section, keyed by
// the per-layer metric each figure is reported as.
type metricsDelta map[string]float64

// since is the change from scrape b to scrape a. Fractions of "requests" are
// of live /viz requests received.
func since(a, b middleware.MetricsSnapshot) metricsDelta {
	requests := a.Requests - b.Requests
	planHits, resHits := a.PlanHits-b.PlanHits, a.ResultHits-b.ResultHits
	computed, used := a.PrefetchComputed-b.PrefetchComputed, a.PrefetchHits-b.PrefetchHits
	return metricsDelta{
		"middleware.plan_hit_frac":       frac(planHits, planHits+a.PlanMisses-b.PlanMisses+a.PlanCoalesced-b.PlanCoalesced),
		"middleware.result_hit_frac":     frac(resHits, resHits+a.ResultMisses-b.ResultMisses),
		"middleware.subsumed_frac":       frac(a.SubsumedHits-b.SubsumedHits, requests),
		"middleware.exec_coalesced_frac": frac(a.ExecCoalesced-b.ExecCoalesced, requests),
		// Share of live requests served from a speculative entry; of the
		// speculative executions, the share no live request ever used; of
		// the predictions issued, the share admission shed.
		"middleware.prefetch_hit_frac":   frac(used, requests),
		"middleware.prefetch_waste_frac": frac(computed-used, computed),
		"middleware.prefetch_shed_frac":  frac(a.PrefetchShed-b.PrefetchShed, a.PrefetchIssued-b.PrefetchIssued),
		"middleware.rejected_frac":       frac(a.RejectedBusy-b.RejectedBusy+a.RejectedWait-b.RejectedWait, requests),
		"middleware.flush_p95_ms":        a.FlushP95Ms,
		"middleware.ingest_flushes":      float64(a.IngestFlushes - b.IngestFlushes),
		"middleware.ingest_rows":         float64(a.IngestRows - b.IngestRows),
	}
}

// verify is the correctness gate: the sampled requests are re-issued to the
// server under test and to an uncached reference gateway over the same
// dataset and policy (no session header, so no speculation either), and the
// two bodies must be byte-identical. A mismatch is a failed operation.
func (r *run) verify(bodies [][]byte) error {
	ref, err := r.fx.startGateway(uncachedConfig())
	if err != nil {
		return fmt.Errorf("starting reference gateway: %w", err)
	}
	defer ref.close()
	rc := newClient(ref.url)
	defer rc.close()
	c := r.clients[0]
	for i, body := range bodies {
		r.side.attempted++
		wantStatus, want, err := rc.post("/viz", body, "")
		if err != nil || wantStatus != http.StatusOK {
			r.side.fail(fmt.Errorf("verify %d: reference: status %d: %v", i, wantStatus, err))
			continue
		}
		want = append([]byte(nil), want...)
		gotStatus, got, err := c.post("/viz", body, "")
		if err != nil || gotStatus != http.StatusOK {
			r.side.fail(fmt.Errorf("verify %d: server under test: status %d: %v", i, gotStatus, err))
			continue
		}
		if !bytes.Equal(want, got) {
			r.side.fail(fmt.Errorf("verify %d: response differs from the uncached reference (%d vs %d bytes) for %s", i, len(got), len(want), body))
		}
	}
	return nil
}

// dropWAL closes and deletes the run's temporary write-ahead log.
func (r *run) dropWAL() {
	if r.wal == nil {
		return
	}
	_ = r.wal.Close() // the log is scratch; it is deleted next
	_ = os.RemoveAll(r.walDir)
}
