package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/workload"
)

// testDomain is the twitter dataset's metadata from a tiny build: request
// generation never reads rows, so 2 000 of them are as good as 60 000.
func testDomain(t *testing.T) domain {
	t.Helper()
	build, err := workload.StandardBuilder(datasetName, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return domainOf(ds)
}

func TestSameSeedSameSequences(t *testing.T) {
	d := testDomain(t)
	if a, b := coldShapes(d, 600, 7), coldShapes(d, 600, 7); !reflect.DeepEqual(a, b) {
		t.Error("coldShapes: same seed gave different bodies")
	}
	if a, b := coldShapes(d, 600, 7), coldShapes(d, 600, 8); reflect.DeepEqual(a, b) {
		t.Error("coldShapes: different seeds gave identical bodies")
	}
	if a, b := zipfSequence(5000, 7), zipfSequence(5000, 7); !reflect.DeepEqual(a, b) {
		t.Error("zipfSequence: same seed gave different draws")
	}
	if a, b := zipfSequence(5000, 7), zipfSequence(5000, 8); reflect.DeepEqual(a, b) {
		t.Error("zipfSequence: different seeds gave identical draws")
	}
	n := countsFor(referenceSeconds, false)
	t1, r1, w1 := coldSequences(d, n, 7)
	t2, r2, w2 := coldSequences(d, n, 7)
	t3, r3, w3 := coldSequences(d, n, 8)
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) {
		t.Error("coldSequences: same seed gave different sequences")
	}
	if reflect.DeepEqual(t1, t3) || reflect.DeepEqual(w1, w3) || !reflect.DeepEqual(r1, r3) {
		t.Error("coldSequences: a different seed must reorder the timed and warm-up requests and nothing else")
	}
	if len(t1) != numPasses*n.coldPass || len(r1) != n.traceReplay || len(w1) != n.coldWarmup {
		t.Errorf("coldSequences: %d timed, %d replay, %d warm-up requests", len(t1), len(r1), len(w1))
	}
	pool := sessionPool(d, 8, sessionSteps)
	if !reflect.DeepEqual(pool, sessionPool(d, 8, sessionSteps)) {
		t.Error("sessionPool is not reproducible")
	}
	if a, b := dealSessions(pool, 2, 7), dealSessions(pool, 2, 7); !reflect.DeepEqual(a, b) {
		t.Error("dealSessions: same seed dealt different hands")
	}
	if a, b := dealSessions(pool, 2, 7), dealSessions(pool, 2, 8); reflect.DeepEqual(a, b) {
		t.Error("dealSessions: different seeds dealt identical hands")
	}
}

// TestZipfBlocksCarryExactProportions pins what makes the Zipf workloads'
// virtual-clock metrics independent of the seed: any whole number of blocks
// asks for every shape exactly as often, whatever the order.
func TestZipfBlocksCarryExactProportions(t *testing.T) {
	block := zipfBlock()
	count := func(seq []uint8) [zipfShapes]int {
		var c [zipfShapes]int
		for _, k := range seq {
			c[k]++
		}
		return c
	}
	want := count(block)
	for k := 1; k < zipfShapes; k++ {
		if want[k] < 1 || want[k] > want[k-1] {
			t.Fatalf("shape %d appears %d times per block, shape %d %d times", k, want[k], k-1, want[k-1])
		}
	}
	if top := float64(want[0]) / float64(len(block)); top < 0.2 || top > 0.3 {
		t.Errorf("top shape takes %.3f of a block, want about a quarter", top)
	}
	for _, seed := range []int64{1, 2} {
		seq := zipfSequence(3*len(block), seed)
		for b := 0; b < 3; b++ {
			if got := count(seq[b*len(block) : (b+1)*len(block)]); got != want {
				t.Errorf("seed %d block %d does not carry the block's proportions", seed, b)
			}
		}
	}
}

func TestColdShapesAreDistinctAndStratified(t *testing.T) {
	d := testDomain(t)
	shapes := coldShapes(d, 3*coldBlock, 3)
	seen := make(map[string]bool, len(shapes))
	for _, b := range shapes {
		if seen[string(b)] {
			t.Fatalf("shape repeated: %s", b)
		}
		seen[string(b)] = true
	}
	for block := 0; block < 3; block++ {
		type cell struct {
			keyword string
			tiles   int // viewports per extent width: 2^zoom
		}
		cells := make(map[cell]bool)
		scatters := 0
		for _, b := range shapes[block*coldBlock : (block+1)*coldBlock] {
			var v vizBody
			if err := json.Unmarshal(b, &v); err != nil {
				t.Fatal(err)
			}
			cells[cell{v.Keyword, int((d.extent.MaxLon-d.extent.MinLon)/(v.MaxLon-v.MinLon) + 0.5)}] = true
			if v.Kind == "scatter" {
				scatters++
			}
		}
		if len(cells) != coldBlock {
			t.Errorf("block %d covers %d (keyword, zoom) cells, want %d", block, len(cells), coldBlock)
		}
		if scatters != coldBlock/scatterEvery {
			t.Errorf("block %d has %d scatters, want %d", block, scatters, coldBlock/scatterEvery)
		}
	}
}

func TestEveryBodyParses(t *testing.T) {
	d := testDomain(t)
	bodies := append(coldShapes(d, 500, 5), zipfPool(d)...)
	bodies = append(bodies, allSteps(sessionPool(d, 8, sessionSteps))...)
	for _, b := range bodies {
		req, err := middleware.ParseRequest(b)
		if err != nil {
			t.Fatalf("ParseRequest(%s): %v", b, err)
		}
		if req.Keyword == "" || req.Region.Area() <= 0 || !req.To.After(req.From) || req.BudgetMs != budgetMs {
			t.Fatalf("body %s parsed into an incomplete request %+v", b, req)
		}
	}
}

// TestSessionsLandOnTheServersLattice checks the session walk against the
// server's own predictor rather than a copy of its arithmetic: whenever a
// session pans twice in the same direction, the momentum prediction the
// tracker makes after the first pan must be the second pan's viewport, to
// the bit — otherwise no prefetched tile could ever be hit by exact key.
func TestSessionsLandOnTheServersLattice(t *testing.T) {
	d := testDomain(t)
	checked := 0
	for _, s := range sessionPool(d, 12, sessionSteps) {
		tracker := middleware.NewSessionTracker(middleware.SessionConfig{MaxPrefetch: 8})
		var reqs []middleware.Request
		for _, b := range s.steps {
			req, err := middleware.ParseRequest(b)
			if err != nil {
				t.Fatal(err)
			}
			if w := req.Region.MaxLon - req.Region.MinLon; req.GridW != int(float64(sessionGridW)*w/(d.extent.MaxLon-d.extent.MinLon)+0.5) {
				t.Fatalf("step %s: grid does not halve with the viewport", b)
			}
			reqs = append(reqs, req)
		}
		for i := 0; i+2 < len(reqs); i++ {
			preds := tracker.Observe(s.id, reqs[i], d.extent)
			if i == 0 || !sameStep(reqs[i-1], reqs[i], reqs[i+1]) {
				continue
			}
			found := false
			for _, p := range preds {
				found = found || p.Region == reqs[i+1].Region
			}
			if !found {
				t.Fatalf("session %s step %d: next viewport %+v is not among the predictions %+v", s.id, i+1, reqs[i+1].Region, preds)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d straight pans checked; the walk changed shape", checked)
	}
}

// sameStep reports whether a→b and b→c are pans by the same non-zero offset
// at one zoom level.
func sameStep(a, b, c middleware.Request) bool {
	if a.GridW != b.GridW || b.GridW != c.GridW {
		return false
	}
	d1 := engine.Point{Lon: b.Region.MinLon - a.Region.MinLon, Lat: b.Region.MinLat - a.Region.MinLat}
	d2 := engine.Point{Lon: c.Region.MinLon - b.Region.MinLon, Lat: c.Region.MinLat - b.Region.MinLat}
	w, h := b.Region.MaxLon-b.Region.MinLon, b.Region.MaxLat-b.Region.MinLat
	near := func(x, y, scale float64) bool { return x-y < 1e-9*scale && y-x < 1e-9*scale }
	return (d1.Lon != 0 || d1.Lat != 0) && near(d1.Lon, d2.Lon, w) && near(d1.Lat, d2.Lat, h)
}

func TestVirtualClockScan(t *testing.T) {
	resp := middleware.Response{Kind: middleware.VizHeatmap, Bins: map[int]float64{3: 2}, Trace: middleware.Trace{
		SQL: `SELECT "viable": "total_ms": 9 FROM t`, TotalMs: 612.25, Viable: true,
	}}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	viable, ms, err := virtualClock(body)
	if err != nil || !viable || ms != 612.25 {
		t.Fatalf("virtualClock(%s) = %v, %v, %v", body, viable, ms, err)
	}
	if _, _, err := virtualClock([]byte(`{"error":"no trace here"}`)); err == nil {
		t.Error("virtualClock accepted a body without a trace")
	}
}

// TestMetricTablesMatchContract holds the program's metric and workload
// tables and BENCHMARK.json together: the driver refuses a run whose result
// line has any other key set than the contract's.
func TestMetricTablesMatchContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range contract.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("BENCHMARK.json %s = %v\nprogram reports %v", what, g, want)
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)
}

// TestSmoke runs every workload untraced and traced at -smoke size: every
// code path of the benchmark, a few seconds in all.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := execute(def, options{seed: 1, seconds: referenceSeconds, trace: trace, smoke: true, outDir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", def.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", def.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", def.name, trace, m.name)
				}
			}
		}
	}
}
