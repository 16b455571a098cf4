// Package maliva's root benchmark suite times the paper's figure experiments
// (§7) that no golden test pins, plus micro-benchmarks for the hot substrate
// paths. Run:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks use the reduced ("small") configuration so the whole
// suite finishes in minutes; cmd/maliva-bench runs the full scale and prints
// the VQP and AQRT numbers. Tables 1–3, the §1 statistic and Figures 18–20
// have no wrapper here: internal/harness's TestPaperTablesGolden already runs
// them at the same scale and pins their output byte for byte.
package maliva_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/nn"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

// runExperiment executes one harness experiment per benchmark iteration and
// fails if it errs or reports nothing.
func runExperiment(b *testing.B, id string) {
	exp, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(harness.RunConfig{Small: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Sections) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// BenchmarkFig12VQP regenerates Figure 12 (VQP on three datasets).
func BenchmarkFig12VQP(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13AQRT regenerates Figure 13 (AQRT on three datasets).
func BenchmarkFig13AQRT(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14RewriteOptions regenerates Figure 14 (16/32 options VQP).
func BenchmarkFig14RewriteOptions(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15RewriteOptions regenerates Figure 15 (16/32 options AQRT).
func BenchmarkFig15RewriteOptions(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16TimeBudgets regenerates Figure 16 (VQP across budgets).
func BenchmarkFig16TimeBudgets(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17TimeBudgets regenerates Figure 17 (AQRT across budgets).
func BenchmarkFig17TimeBudgets(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig21Training regenerates Figure 21 (learning and training-time
// curves).
func BenchmarkFig21Training(b *testing.B) { runExperiment(b, "fig21") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: the substrate hot paths behind the experiments.

// benchDB builds the shared micro-benchmark database once.
func benchDB(b *testing.B) (*workload.Dataset, *engine.Query) {
	b.Helper()
	cfg := workload.TwitterConfig()
	cfg.Rows = 40_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.GenerateQueries(ds, 1, workload.QuerySpec{NumPreds: 3, Seed: 3})
	return ds, qs[0]
}

// BenchmarkEngineExecuteIndexPlan measures a hinted multi-index execution.
func BenchmarkEngineExecuteIndexPlan(b *testing.B) {
	ds, q := benchDB(b)
	h := engine.ForcedHint([]int{0, 1}, engine.JoinAuto)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.Run(q, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExecuteSeqScan measures a forced sequential scan.
func BenchmarkEngineExecuteSeqScan(b *testing.B) {
	ds, q := benchDB(b)
	h := engine.ForcedHint(nil, engine.JoinAuto)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.DB.Run(q, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerChoosePlan measures plan enumeration + costing.
func BenchmarkOptimizerChoosePlan(b *testing.B) {
	ds, q := benchDB(b)
	ds.DB.ChoosePlan(q) // warm the statistics cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.DB.ChoosePlan(q)
	}
}

// BenchmarkBuildContext measures ground-truth construction per query.
func BenchmarkBuildContext(b *testing.B) {
	ds, q := benchDB(b)
	cfg := core.DefaultContextConfig(core.HintOnlySpec())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildContext(ds.DB, q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildContextSharedFull is BenchmarkBuildContext behind a capped
// shared lookup cache that other queries have already filled — the regime a
// long-running server lives in (middleware's server-scope cache stops
// inserting at its cap). The build's own predicates never get a slot, so any
// sharing between its executions has to come from the per-build memo.
func BenchmarkBuildContextSharedFull(b *testing.B) {
	ds, q := benchDB(b)
	const slots = 64
	shared := engine.NewLookupCacheWithCap(slots)
	for _, other := range workload.GenerateQueries(ds, 4*slots, workload.QuerySpec{NumPreds: 3, Seed: 11}) {
		ds.DB.TrueSelectivitiesCached(other, shared)
	}
	if shared.Len() != slots {
		b.Fatalf("shared cache holds %d entries, want it full at %d", shared.Len(), slots)
	}
	cfg := core.DefaultContextConfig(core.HintOnlySpec())
	cfg.Lookups = shared
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildContext(ds.DB, q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLabConfig sizes the lab-construction benchmarks: big enough that the
// per-query fan-out dominates, small enough for -benchtime=1x smoke runs.
var benchLabConfig = harness.LabConfig{
	NumQueries: 24,
	QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
	Space:      core.HintOnlySpec(),
	Budget:     500,
	Seed:       9,
}

// benchLabDataset builds the dataset shared by the lab benchmarks.
func benchLabDataset(b *testing.B) *workload.Dataset {
	b.Helper()
	cfg := workload.TwitterConfig()
	cfg.Rows = 20_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkBuildLabSerial measures ground-truth pipeline construction on
// one processor — the paper's offline experience-collection cost.
func BenchmarkBuildLabSerial(b *testing.B) {
	ds := benchLabDataset(b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.BuildLab(ds, benchLabConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildLabParallel is the same pipeline saturating all cores.
func BenchmarkBuildLabParallel(b *testing.B) {
	ds := benchLabDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.BuildLab(ds, benchLabConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildLabSpeedup runs the serial and parallel pipelines back to
// back each iteration and reports the wall-clock ratio as a custom metric —
// the headline number for the parallel ground-truth pipeline (near-linear on
// multi-core; ~1.0 on a single-core machine).
func BenchmarkBuildLabSpeedup(b *testing.B) {
	ds := benchLabDataset(b)
	b.ResetTimer()
	procs := runtime.GOMAXPROCS(0)
	var serialNs, parallelNs int64
	for i := 0; i < b.N; i++ {
		runtime.GOMAXPROCS(1)
		t0 := time.Now()
		_, err := harness.BuildLab(ds, benchLabConfig)
		serialNs += time.Since(t0).Nanoseconds()
		runtime.GOMAXPROCS(procs)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := harness.BuildLab(ds, benchLabConfig); err != nil {
			b.Fatal(err)
		}
		parallelNs += time.Since(t1).Nanoseconds()
	}
	if parallelNs > 0 {
		b.ReportMetric(float64(serialNs)/float64(parallelNs), "speedup")
	}
	b.ReportMetric(float64(procs), "procs")
}

// benchServer builds a serving-layer benchmark: a middleware server over
// the shared 40k-row Twitter dataset with the Oracle rewriter (the
// benchmarks measure the serving path, not planning quality).
func benchServer(b *testing.B, cached bool) (*middleware.Server, middleware.Request) {
	b.Helper()
	ds, _ := benchDB(b)
	cfg := middleware.ServerConfig{DefaultBudgetMs: 500}
	if !cached {
		cfg.PlanCacheSize = -1
		cfg.ResultCacheSize = -1
	}
	s, err := middleware.NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	req := middleware.Request{
		Keyword: "word0005",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region:  workload.USExtent,
		Kind:    middleware.VizHeatmap,
		GridW:   32, GridH: 16,
	}
	return s, req
}

// BenchmarkServerHandleCold measures one uncached request end to end:
// context construction, rewrite, execution, binning.
func BenchmarkServerHandleCold(b *testing.B) {
	s, req := benchServer(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Handle(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerHandleWarm measures the fully-cached serving path (plan
// and result cache hits) — what a repeated pan/zoom shape costs.
func BenchmarkServerHandleWarm(b *testing.B) {
	s, req := benchServer(b, true)
	if _, err := s.Handle(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Handle(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentRewrite measures one online Algorithm-2 pass.
func BenchmarkAgentRewrite(b *testing.B) {
	ds, q := benchDB(b)
	ctx, err := core.BuildContext(ds.DB, q, core.DefaultContextConfig(core.HintOnlySpec()))
	if err != nil {
		b.Fatal(err)
	}
	est := qte.NewAccurateQTE()
	agent := core.NewAgent(core.DefaultAgentConfig(), ctx.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := core.NewEnv(core.EnvConfig{Budget: 500, QTE: est, Beta: 1}, ctx)
		agent.Rewrite(env)
	}
}

// BenchmarkQNetForward measures a single Q-network inference.
func BenchmarkQNetForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP([]int{17, 17, 17, 8}, rng)
	x := make([]float64, 17)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkIndexLookup measures one materializing index scan — tree walk plus
// ordering the matches by row id — for the benchmark query's time-range
// (btree) and bounding-box (rtree) predicates, as the executor's access path
// and the lookup caches call it.
func BenchmarkIndexLookup(b *testing.B) {
	ds, q := benchDB(b)
	t := ds.DB.Table(ds.Main)
	for _, c := range []struct {
		name string
		kind engine.PredKind
	}{{"btree", engine.PredRange}, {"rtree", engine.PredGeo}} {
		b.Run(c.name, func(b *testing.B) {
			var pred engine.Predicate
			for _, p := range q.Preds {
				if p.Kind == c.kind {
					pred = p
				}
			}
			ix := t.Index(pred.Col)
			if ix == nil {
				b.Fatalf("benchmark query has no indexed %s predicate", c.kind)
			}
			rows, _, err := ix.Lookup(pred)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rows.Len()), "rows")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Lookup(pred); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBTreeRange measures the visitor range scan underneath
// Index.Lookup, without ordering or materializing the matches.
func BenchmarkBTreeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 200_000
	keys := make([]float64, n)
	rows := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Float64() * 1e6
		rows[i] = uint32(i)
	}
	tree := engine.NewBTree(keys, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Float64() * 9e5
		tree.Visit(lo, lo+1e4, func(uint32) bool { return true })
	}
}

// BenchmarkRTreeSearch measures spatial box queries.
func BenchmarkRTreeSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 200_000
	pts := make([]engine.Point, n)
	rows := make([]uint32, n)
	for i := range pts {
		pts[i] = engine.Point{Lon: rng.Float64() * 100, Lat: rng.Float64() * 50}
		rows[i] = uint32(i)
	}
	tree := engine.NewRTree(pts, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx, cy := rng.Float64()*100, rng.Float64()*50
		tree.Search(engine.Rect{MinLon: cx, MinLat: cy, MaxLon: cx + 5, MaxLat: cy + 3})
	}
}
