package middleware

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// approxServers builds two servers over one sketch-bearing dataset, both
// planning over the approximate tier with the quality oracle: the subject
// (full caching) and a cache-less reference that always executes. Determinism
// of the tier means the two must produce byte-identical answers for any
// request either way it is served.
func approxServers(t *testing.T) (subject, reference *Server) {
	t.Helper()
	ds := testDataset(t)
	if _, err := ds.DB.Table(ds.Main).BuildSketch("text", "created_at", 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	subject, err := NewServerWithConfig(ds, core.QualityOracle{}, core.ApproxTierSpec(),
		ServerConfig{DefaultBudgetMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	reference, err = NewServerWithConfig(ds, core.QualityOracle{}, core.ApproxTierSpec(),
		ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return subject, reference
}

// approxWindowReq is the shared keyword+time-window request shape (no region,
// so the sketch rules stay eligible for aggregate kinds).
func approxWindowReq(kind VizKind, keyword string, budget float64) Request {
	return Request{
		Keyword:  keyword,
		From:     time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:       time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Kind:     kind,
		BudgetMs: budget,
	}
}

// tightBudgetMs sits above the 2ms virtual startup floor (so the cheap
// approximate actions stay feasible) but far below any exact row-touching
// plan at the fixture's 12500x scale factor.
const tightBudgetMs = 12

// ciSlack widens a stated 95% interval to a 99.9% acceptance band (z 3.29
// over z 1.96): the fixtures are fixed-seed, so any pass is a permanent pass,
// but a strict-95% gate over the ladder's dozens of answers would fail a
// healthy estimator by design.
const ciSlack = 3.29 / 1.96

// assertWithinStatedError checks an approximate aggregate against the exact
// answer under the response's own stated error contract.
func assertWithinStatedError(t *testing.T, meta *ApproxMeta, got, exact float64) {
	t.Helper()
	const eps = 1e-9
	ok := false
	switch meta.Bound {
	case "exact-count": // reservoir: the matched count itself is exact
		ok = math.Abs(got-exact) <= eps
	case "overestimate": // cms: one-sided, held without slack
		ok = got >= exact-eps && got <= exact+meta.CIHalfWidth+eps
	case "truncation": // limit: no bound stated beyond never overcounting
		ok = got <= exact+eps
	case "two-sided": // rows, sample, hll
		ok = math.Abs(got-exact) <= ciSlack*meta.CIHalfWidth+eps
	default:
		t.Errorf("unknown bound class %q (method %s)", meta.Bound, meta.Method)
		return
	}
	if !ok {
		t.Errorf("%s estimate %v vs exact %v: outside the stated %s bound (CI half-width %v)",
			meta.Method, got, exact, meta.Bound, meta.CIHalfWidth)
	}
}

// TestCountServingExactAndApprox: a count request answers exactly under a
// generous budget (no approximate marker, value agreeing with the cache-less
// reference) and approximately under a tight one — marked, carrying an error
// contract the exact answer actually satisfies, and counted by the
// approx-served metric.
func TestCountServingExactAndApprox(t *testing.T) {
	subject, reference := approxServers(t)

	exactResp, err := subject.Handle(approxWindowReq(VizCount, "word0003", 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if exactResp.Approximate || exactResp.Approx != nil {
		t.Fatalf("generous-budget count marked approximate (option %s)", exactResp.Trace.Option)
	}
	if exactResp.Value == nil {
		t.Fatal("count response missing value")
	}
	refResp, err := reference.Handle(approxWindowReq(VizCount, "word0003", 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if *refResp.Value != *exactResp.Value {
		t.Fatalf("exact count diverged between servers: %v vs %v", *exactResp.Value, *refResp.Value)
	}

	before := subject.Metrics().Snapshot().ApproxServed
	apResp, err := subject.Handle(approxWindowReq(VizCount, "word0003", tightBudgetMs))
	if err != nil {
		t.Fatal(err)
	}
	if !apResp.Approximate || apResp.Approx == nil {
		t.Fatalf("tight-budget count (option %s, %v exec ms) not served approximately — no exact plan should fit %vms",
			apResp.Trace.Option, apResp.Trace.ExecMs, float64(tightBudgetMs))
	}
	if apResp.Value == nil {
		t.Fatal("approximate count response missing value")
	}
	if apResp.Approx.Fingerprint == "" {
		t.Error("approximate response carries no fingerprint")
	}
	assertWithinStatedError(t, apResp.Approx, *apResp.Value, *exactResp.Value)
	if got := subject.Metrics().Snapshot().ApproxServed - before; got != 1 {
		t.Errorf("approx_served counted %d, want 1", got)
	}
}

// TestDistinctServingExactAndHLL: distinct-words requests — exact under a
// generous budget, HLL-sketch-served under a tight one, with the HLL estimate
// inside its stated interval of the exact answer. The time window is snapped
// to the sketch's bucket lattice at planning time, so both arms count the
// same row set.
func TestDistinctServingExactAndHLL(t *testing.T) {
	subject, reference := approxServers(t)
	req := approxWindowReq(VizDistinct, "", 1e6) // no keyword: the HLL shape

	exactResp, err := subject.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if exactResp.Approximate {
		t.Fatalf("generous-budget distinct marked approximate (option %s)", exactResp.Trace.Option)
	}
	if exactResp.Value == nil || *exactResp.Value <= 0 {
		t.Fatalf("exact distinct value = %v, want positive", exactResp.Value)
	}
	refResp, err := reference.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if *refResp.Value != *exactResp.Value {
		t.Fatalf("exact distinct diverged between servers: %v vs %v", *exactResp.Value, *refResp.Value)
	}

	req.BudgetMs = tightBudgetMs
	apResp, err := subject.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if !apResp.Approximate || apResp.Approx == nil {
		t.Fatalf("tight-budget distinct (option %s) not served approximately", apResp.Trace.Option)
	}
	if apResp.Approx.Method != "hll" {
		t.Fatalf("tight-budget distinct used method %q, want hll (the only rule in the distinct space)", apResp.Approx.Method)
	}
	assertWithinStatedError(t, apResp.Approx, *apResp.Value, *exactResp.Value)
}

// TestApproxBudgetLadder sweeps a count/distinct/heatmap probe mix over a
// budget ladder at 10x the fixture's virtual scale (stored rows fixed, the
// cost model's Scale multiplied — budgets the exact space cannot meet). Two
// uncached arms over one dataset: exact-only (hint space, plain Oracle) and
// the approximate tier (sampling + sketch actions, QualityOracle). Every
// approximate answer must sit inside its own stated contract against the
// exact arm's truth, an unbounded budget must fall back to an answer
// byte-equal to the exact arm's, and some budget must exercise the tier.
func TestApproxBudgetLadder(t *testing.T) {
	cfg := workload.TwitterConfig()
	cfg.Rows = 8_000
	cfg.Scale = 10 * 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DB.Table(ds.Main).BuildSketch("text", "created_at", 24*time.Hour); err != nil {
		t.Fatal(err)
	}
	// Uncached and subsumption-free: every request is a fresh plan+execute,
	// so what is served is a property of the rewrite space, not of whatever
	// an earlier budget left in a cache.
	uncached := ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1}
	exact, err := NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(), uncached)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := NewServerWithConfig(ds, core.QualityOracle{}, core.ApproxTierSpec(), uncached)
	if err != nil {
		t.Fatal(err)
	}

	wide := [2]time.Time{ds.TimeOrigin.AddDate(0, 0, 30), ds.TimeOrigin.AddDate(0, 0, 90)}
	narrow := [2]time.Time{ds.TimeOrigin.AddDate(0, 0, 10), ds.TimeOrigin.AddDate(0, 0, 24)}
	ext := ds.Extent
	quadrant := engine.Rect{
		MinLon: ext.MinLon, MinLat: ext.MinLat,
		MaxLon: (ext.MinLon + ext.MaxLon) / 2, MaxLat: (ext.MinLat + ext.MaxLat) / 2,
	}
	var probes []Request
	for _, w := range [][2]time.Time{wide, narrow} {
		for _, kw := range []string{"word0003", "word0007", "word0025", "word0041"} {
			probes = append(probes, Request{Kind: VizCount, Keyword: kw, From: w[0], To: w[1]})
		}
		probes = append(probes, Request{Kind: VizDistinct, From: w[0], To: w[1]})
	}
	for _, kw := range []string{"word0003", "word0025"} {
		for _, region := range []engine.Rect{ext, quadrant} {
			probes = append(probes, Request{Kind: VizHeatmap, Keyword: kw, From: wide[0], To: wide[1],
				Region: region, GridW: 32, GridH: 16})
		}
	}

	// total reduces a response to the scalar its contract is stated over: the
	// aggregate value, or the summed bin mass for heatmaps.
	total := func(r *Response) float64 {
		if r.Value != nil {
			return *r.Value
		}
		sum := 0.0
		for _, v := range r.Bins {
			sum += v
		}
		return sum
	}
	// answer renders the answer surface only: Trace legitimately differs
	// across rewrite spaces.
	answer := func(r *Response) string {
		c := *r
		c.Trace = Trace{}
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	served := map[VizKind]int{}
	for i, p := range probes {
		p.BudgetMs = 1e9 // every exact plan fits
		want, err := exact.Handle(p)
		if err != nil {
			t.Fatalf("probe %d: exact arm: %v", i, err)
		}
		got, err := tier.Handle(p)
		if err != nil {
			t.Fatalf("probe %d: approximate arm: %v", i, err)
		}
		if got.Approximate || answer(got) != answer(want) {
			t.Errorf("probe %d (%s): unbounded budget not byte-equal to the exact arm\ngot:  %s\nwant: %s",
				i, p.Kind, answer(got), answer(want))
		}
		for _, budget := range []float64{10, 100, 1000, 10000, 100000} {
			p.BudgetMs = budget
			ar, err := tier.Handle(p)
			if err != nil {
				t.Fatalf("probe %d @%vms: %v", i, budget, err)
			}
			if !ar.Approximate {
				continue
			}
			if ar.Approx == nil {
				t.Fatalf("probe %d @%vms: approximate answer without a contract", i, budget)
			}
			served[p.Kind]++
			assertWithinStatedError(t, ar.Approx, total(ar), total(want))
		}
	}
	t.Logf("approximate answers served per kind: %v", served)
	if len(served) == 0 {
		t.Fatal("no budget on the ladder was served approximately — the sweep never exercised the tier")
	}
}

// TestDistinctWithoutTextColumn: a distinct request against a dataset with no
// text column is a client error, not a panic or a zero.
func TestDistinctWithoutTextColumn(t *testing.T) {
	ds := testDataset(t)
	srv, err := NewServer(ds, core.QualityOracle{}, core.ApproxTierSpec(), 500)
	if err != nil {
		t.Fatal(err)
	}
	srv.textCol = "" // simulate a text-less dataset without building one
	if _, err := srv.Handle(approxWindowReq(VizDistinct, "", 1e6)); err == nil {
		t.Fatal("distinct request on a text-less dataset succeeded")
	}
}

// TestApproxDeterministicAcrossServers: two independent serving stacks over
// the same data answer a tight-budget (approximate) request byte-identically
// — the serving-layer face of the (seed, fingerprint, data-version)
// determinism contract.
func TestApproxDeterministicAcrossServers(t *testing.T) {
	subject, reference := approxServers(t)
	for _, kind := range []VizKind{VizHeatmap, VizCount} {
		req := approxWindowReq(kind, "word0003", tightBudgetMs)
		a, err := subject.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reference.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Approximate {
			t.Fatalf("%s: tight-budget request not approximate (option %s)", kind, a.Trace.Option)
		}
		ab, _ := json.Marshal(a)
		bb, _ := json.Marshal(b)
		if string(ab) != string(bb) {
			t.Fatalf("%s: approximate answers diverged across servers\none: %s\ntwo: %s", kind, ab, bb)
		}
	}
}

// TestApproxKeysNeverAnswerExact: the result cache treats fidelity as part of
// identity — an entry stored under an approximate key is unreachable from the
// exact spelling of the same request, and the two keys hash apart.
func TestApproxKeysNeverAnswerExact(t *testing.T) {
	c := newResultCache(8, time.Minute, nil)
	approxKey := ResultKey{SQL: "SELECT 1", Kind: VizCount, Budget: 10, DataVersion: 3, Approx: "rows:0.2:0"}
	exactKey := approxKey
	exactKey.Approx = ""
	v := 7.0
	c.Put(approxKey, &Response{Kind: VizCount, Value: &v, Approximate: true})
	if got := c.Get(exactKey); got != nil {
		t.Fatal("exact key returned an approximate entry")
	}
	if got := c.Get(approxKey); got == nil || !got.Approximate {
		t.Fatal("approximate entry not retrievable under its own key")
	}
	if approxKey.Hash() == exactKey.Hash() {
		t.Fatal("approximate and exact keys hash identically")
	}
}

// TestCoarserGridNotSubsumed is the regression pin for the subsumption
// alignment contract: a cached finer-celled parent must never answer a
// coarser-celled request over the same region (aggregating 2×2 parent cells
// would re-sum floats in an order direct execution never uses), and a
// finer-celled request must not be answered either. Both must execute and
// match direct execution byte for byte.
func TestCoarserGridNotSubsumed(t *testing.T) {
	subject, reference := subsumeServers(t)
	ext := subject.DS.Extent
	parent := Request{
		Keyword: "word0003",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region:  ext, Kind: VizHeatmap, GridW: 32, GridH: 16, BudgetMs: 500,
	}
	if _, err := subject.Handle(parent); err != nil {
		t.Fatal(err)
	}

	before := subject.Metrics().Snapshot().SubsumedHits
	for _, grid := range []struct{ w, h int }{
		{16, 8},  // coarser cells, same region: boundaries align, sizes don't
		{64, 32}, // finer cells, same region
	} {
		sub := parent
		sub.GridW, sub.GridH = grid.w, grid.h
		got, err := subject.Handle(sub)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.Handle(sub)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("%dx%d regrid diverged from direct execution\ngot:  %s\nwant: %s", grid.w, grid.h, gb, wb)
		}
	}
	if hits := subject.Metrics().Snapshot().SubsumedHits - before; hits != 0 {
		t.Fatalf("a regridded request was answered by slicing a different-cell-size parent (%d subsumed hits)", hits)
	}
}

// TestApproxRequestsSkipSubsumption: approximate heatmaps neither slice nor
// get sliced. A Bernoulli sample's seed derives from the query fingerprint —
// which embeds the region predicate — so a parent's kept rows restricted to a
// sub-window are not the sub-request's sample; the only correct answer is
// direct execution, which must stay byte-identical to the cache-less path.
func TestApproxRequestsSkipSubsumption(t *testing.T) {
	subject, reference := approxServers(t)
	ext := subject.DS.Extent
	parent := approxWindowReq(VizHeatmap, "word0003", tightBudgetMs)
	parent.Region, parent.GridW, parent.GridH = ext, 32, 16
	pResp, err := subject.Handle(parent)
	if err != nil {
		t.Fatal(err)
	}
	if !pResp.Approximate {
		t.Fatalf("tight-budget parent heatmap not approximate (option %s) — the test premise is broken", pResp.Trace.Option)
	}

	before := subject.Metrics().Snapshot().SubsumedHits
	cellW := (ext.MaxLon - ext.MinLon) / 32
	cellH := (ext.MaxLat - ext.MinLat) / 16
	sub := parent
	sub.GridW, sub.GridH = 16, 8
	sub.Region = engine.Rect{
		MinLon: ext.MinLon + 4*cellW, MinLat: ext.MinLat + 2*cellH,
		MaxLon: ext.MinLon + 20*cellW, MaxLat: ext.MinLat + 10*cellH,
	}
	got, err := subject.Handle(sub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.Handle(sub)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatalf("approximate sub-request diverged from direct execution\ngot:  %s\nwant: %s", gb, wb)
	}
	if hits := subject.Metrics().Snapshot().SubsumedHits - before; hits != 0 {
		t.Fatalf("an approximate request took the containment path (%d subsumed hits)", hits)
	}
}
