package core

import (
	"reflect"
	"testing"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/viz"
)

// fullLookupCache returns a capped shared cache other queries have already
// filled, so nothing this test's query looks up can ever be inserted — the
// regime a long-running server's cache lives in.
func fullLookupCache(t *testing.T, db *engine.DB, q *engine.Query) *engine.LookupCache {
	t.Helper()
	const slots = 2
	full := engine.NewLookupCacheWithCap(slots)
	other := q.Clone()
	for i := range other.Preds {
		other.Preds[i].Lo += 1
		other.Preds[i].Box.MinLon += 0.5
		other.Preds[i].Word++
	}
	db.TrueSelectivitiesCached(other, full)
	if full.Len() != slots {
		t.Fatalf("prefill left %d entries, want the cache full at %d", full.Len(), slots)
	}
	return full
}

// TestBuildContextOncePerPredicate: a build puts its own memo in front of the
// shared lookup cache, so each of the query's three indexed predicates
// reaches the shared cache exactly once per build — as a miss the first time,
// as a hit once the shared cache holds it, and as a miss every time when the
// shared cache is full — and the built context is bit-identical whether the
// shared cache is absent, roomy or full.
func TestBuildContextOncePerPredicate(t *testing.T) {
	db, q := smallDB(t, 2000)
	base := DefaultContextConfig(QualityAwareSpec())
	want, err := BuildContext(db, q, base)
	if err != nil {
		t.Fatal(err)
	}

	roomy := engine.NewLookupCache()
	full := fullLookupCache(t, db, q)
	type traffic struct{ hits, misses int64 }
	for _, c := range []struct {
		name   string
		shared *engine.LookupCache
		builds []traffic // shared-cache traffic of each successive build
	}{
		{"nil", nil, []traffic{{0, 0}, {0, 0}}},
		{"roomy", roomy, []traffic{{0, 3}, {3, 0}}},
		{"full", full, []traffic{{0, 3}, {0, 3}}},
	} {
		cfg := base
		cfg.Lookups = c.shared
		for b, wantTraffic := range c.builds {
			h0, m0 := c.shared.Stats()
			got, err := BuildContext(db, q, cfg)
			if err != nil {
				t.Fatalf("%s build %d: %v", c.name, b, err)
			}
			h1, m1 := c.shared.Stats()
			if gotTraffic := (traffic{h1 - h0, m1 - m0}); gotTraffic != wantTraffic {
				t.Errorf("%s build %d: shared cache saw %+v, want %+v", c.name, b, gotTraffic, wantTraffic)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s build %d: context diverges from the cache-less build", c.name, b)
			}
		}
	}
	if full.Len() != 2 {
		t.Errorf("full cache grew to %d entries", full.Len())
	}
}

// TestBuildContextMatchesIndependentRuns: a build executes each distinct
// physical plan once and hands the run to every option that resolves to it —
// the unhinted baseline shares the forced hint the optimizer would have
// picked, and a backend that drops hints collapses many options onto the
// optimizer's plan. Whatever was shared, every per-option number must equal
// what an independent, uncached execution of that option reports.
func TestBuildContextMatchesIndependentRuns(t *testing.T) {
	for _, drop := range []float64{0, 0.6} {
		db, q := smallDB(t, 2000)
		db.Profile.HintDropProb = drop
		joined := q.Clone()
		joined.Join = &engine.JoinClause{
			Table: "dims", LeftCol: "fk", RightCol: "id",
			Preds: []engine.Predicate{{Col: "w", Kind: engine.PredRange, Lo: 10, Hi: 80}},
		}
		for _, c := range []struct {
			name  string
			q     *engine.Query
			space SpaceSpec
		}{
			{"hint-only", q, HintOnlySpec()},
			{"join", joined, JoinSpec()},
			{"quality-aware", q, QualityAwareSpec()},
		} {
			cfg := DefaultContextConfig(c.space)
			ctx, err := BuildContext(db, c.q, cfg)
			if err != nil {
				t.Fatalf("drop=%v %s: %v", drop, c.name, err)
			}
			baseRes, baseStats, err := db.Run(c.q, engine.Hint{})
			if err != nil {
				t.Fatal(err)
			}
			if ctx.BaselineMs != baseStats.SimMs {
				t.Errorf("drop=%v %s: BaselineMs %v, independent run %v", drop, c.name, ctx.BaselineMs, baseStats.SimMs)
			}
			if drop == 0 && (ctx.BaselineOption < 0 || ctx.TrueMs[ctx.BaselineOption] != ctx.BaselineMs) {
				t.Errorf("%s: baseline option %d does not carry the baseline's time", c.name, ctx.BaselineOption)
			}
			grid := qualityGrid(db.Table(c.q.Table), c.q)
			orig := grid.Rasterize(baseRes.Points)
			distinct := map[float64]bool{}
			for i, o := range ctx.Options {
				rq, h := BuildRQ(c.q, o, ctx.EstRows, ctx.Scale)
				res, stats, err := db.Run(rq, h)
				if err != nil {
					t.Fatal(err)
				}
				if ctx.TrueMs[i] != stats.SimMs {
					t.Errorf("drop=%v %s option %s: TrueMs %v, independent run %v",
						drop, c.name, o.Label(len(c.q.Preds)), ctx.TrueMs[i], stats.SimMs)
				}
				wantQ := 1.0
				if o.IsApprox() {
					wantQ = viz.JaccardPixels(orig, grid.Rasterize(res.Points))
				}
				if ctx.Quality[i] != wantQ {
					t.Errorf("drop=%v %s option %s: Quality %v, want %v",
						drop, c.name, o.Label(len(c.q.Preds)), ctx.Quality[i], wantQ)
				}
				distinct[stats.SimMs] = true
			}
			if drop > 0 && c.name == "hint-only" && len(distinct) == len(ctx.Options) {
				t.Errorf("drop=%v: no two options collapsed onto one plan; the shared-run path went unexercised", drop)
			}
		}
	}
}
