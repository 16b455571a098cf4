package middleware

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestLatencyHistQuantiles: the exponential-bucket estimator lands within
// its bucket resolution (a factor of 2) of the true quantiles and keeps
// the ordering p50 ≤ p95 ≤ p99 ≤ max.
func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	// Uniform 1..100 ms.
	for i := 1; i <= 100; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.quantile(0.50)
	p95 := h.quantile(0.95)
	p99 := h.quantile(0.99)
	max := float64(h.maxNs.Load()) / float64(time.Millisecond)

	if max != 100 {
		t.Errorf("max = %v, want 100", max)
	}
	if p50 < 25 || p50 > 100 {
		t.Errorf("p50 = %v, want within a bucket of 50", p50)
	}
	if p95 < 47.5 || p95 > 100 {
		t.Errorf("p95 = %v, want within a bucket of 95", p95)
	}
	if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", p50, p95, p99, max)
	}

	// Empty histogram reports zeros.
	var empty latencyHist
	if empty.quantile(0.95) != 0 {
		t.Error("empty histogram quantile != 0")
	}

	// A single observation pins every quantile to (at most) itself.
	var one latencyHist
	one.observe(3 * time.Millisecond)
	if q := one.quantile(0.99); q <= 0 || q > 3 {
		t.Errorf("single-sample p99 = %v, want in (0, 3]", q)
	}
}

// TestMetricsSnapshotRates: derived rates come out of the raw counters.
func TestMetricsSnapshotRates(t *testing.T) {
	m := NewMetrics()
	m.requests.Add(10)
	m.ok.Add(8)
	m.clientErr.Add(2)
	m.planHits.Add(6)
	m.planMisses.Add(2)
	m.resultHits.Add(3)
	m.resultMisses.Add(1)
	m.budgetViolations.Add(2)
	m.latency.observe(2 * time.Millisecond)

	s := m.Snapshot()
	if s.PlanHitRate != 0.75 {
		t.Errorf("PlanHitRate = %v, want 0.75", s.PlanHitRate)
	}
	if s.ResultHitRate != 0.75 {
		t.Errorf("ResultHitRate = %v, want 0.75", s.ResultHitRate)
	}
	if s.BudgetViolationRate != 0.25 {
		t.Errorf("BudgetViolationRate = %v, want 0.25", s.BudgetViolationRate)
	}
	if s.LatencyCount != 1 || s.LatencyAvgMs <= 0 {
		t.Errorf("latency: %+v", s)
	}

	var buf bytes.Buffer
	m.WritePrometheusLabeled(&buf, `dataset="t"`)
	out := buf.String()
	for _, want := range []string{
		`maliva_requests_total{dataset="t"} 10`,
		`maliva_responses_total{dataset="t",code="2xx"} 8`,
		`maliva_plan_cache_hit_rate{dataset="t"} 0.75`,
		`maliva_budget_violations_total{dataset="t"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}
