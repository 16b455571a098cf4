package harness

import (
	"testing"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// TestBuildLabSharedLookupsDeterministic: the lab's contexts, each built
// behind its own per-build memo only, are bit-identical to the same
// queries' contexts built through one lookup cache shared across the whole
// workload — the way a server shares one across requests. A cached index
// scan returns exactly the rows and entry counts a fresh scan would.
func TestBuildLabSharedLookupsDeterministic(t *testing.T) {
	dcfg, lcfg := parallelTestLabConfig()
	ds, err := workload.Twitter(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := BuildLab(ds, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh dataset keeps the shared-cache builds independent of the lab's.
	ds2, err := workload.Twitter(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := engine.NewLookupCache()
	cfg := core.DefaultContextConfig(lcfg.Space)
	cfg.Seed = lcfg.Seed
	cfg.Lookups = shared
	build := func(qs []*engine.Query) []*core.QueryContext {
		out := make([]*core.QueryContext, len(qs))
		for i, q := range qs {
			if out[i], err = core.BuildContext(ds2.DB, q, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	trainQ, valQ, evalQ := workload.Split(workload.GenerateQueries(ds2, lcfg.NumQueries, lcfg.QuerySpec), lcfg.Seed)
	contextsEqual(t, "train", lab.Train, build(trainQ))
	contextsEqual(t, "val", lab.Val, build(valQ))
	contextsEqual(t, "eval", lab.Eval, build(evalQ))

	hits, misses := shared.Stats()
	if hits == 0 {
		t.Error("shared cache saw no cross-context hits — sharing is not wired")
	}
	if misses == 0 {
		t.Error("shared cache reports zero misses")
	}
	t.Logf("shared lookup cache: %d hits, %d misses (%.0f%% hit rate, %d entries)",
		hits, misses, 100*float64(hits)/float64(hits+misses), shared.Len())
}

// BenchmarkBuildLabLookupSharing compares the lab build with per-context
// lookup caches against one lab-scope shared cache, reporting the hit rate
// each policy achieves. Per-context hit rates are measured the same way the
// serial pipeline works: a fresh cache per context, stats summed.
func BenchmarkBuildLabLookupSharing(b *testing.B) {
	dcfg := workload.TwitterConfig()
	dcfg.Rows = 6_000
	dcfg.Scale = 100e6 / float64(dcfg.Rows)
	ds, err := workload.Twitter(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.GenerateQueries(ds, 24, workload.QuerySpec{NumPreds: 3, Seed: 5})

	build := func(b *testing.B, shared bool) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		var hits, misses int64
		for i := 0; i < b.N; i++ {
			cache := engine.NewLookupCache()
			hits, misses = 0, 0
			for _, q := range queries {
				cfg := core.DefaultContextConfig(core.HintOnlySpec())
				cfg.Seed = 9
				if shared {
					cfg.Lookups = cache
				} else {
					cfg.Lookups = engine.NewLookupCache() // per-context scope
				}
				if _, err := core.BuildContext(ds.DB, q, cfg); err != nil {
					b.Fatal(err)
				}
				if !shared {
					h, m := cfg.Lookups.Stats()
					hits += h
					misses += m
				}
			}
			if shared {
				hits, misses = cache.Stats()
			}
		}
		if hits+misses > 0 {
			b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit_%")
		}
	}

	b.Run("per-context", func(b *testing.B) { build(b, false) })
	b.Run("shared", func(b *testing.B) { build(b, true) })
}
