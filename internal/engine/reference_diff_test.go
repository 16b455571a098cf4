package engine_test

import (
	"reflect"
	"testing"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// TestExecutorMatchesReference runs the workload generator's queries through
// every rewriting option of the four option spaces — index subsets, forced
// join methods, LIMIT early-stop, Bernoulli row sampling, reservoirs,
// sketches — plus the unhinted baseline, and requires the production executor
// (bitset-ordered lookups, column-bound predicates, cheap-first scans, pooled
// everything) to agree with the reference executor on the whole Result and on
// every ExecStats field, virtual time included.
func TestExecutorMatchesReference(t *testing.T) {
	cfg := workload.TwitterConfig()
	cfg.Rows = 6_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DB.Table(ds.Main).BuildSample(20, 7); err != nil {
		t.Fatal(err)
	}
	sampled := core.HintOnlySpec()
	sampled.ApproxRules = []core.ApproxRule{{Kind: core.ApproxSample, Percent: 20}}
	sampled.CrossApprox = true

	spaces := []struct {
		name  string
		space core.SpaceSpec
		spec  workload.QuerySpec
	}{
		{"hint-only", core.HintOnlySpec(), workload.QuerySpec{NumPreds: 3, Seed: 1}},
		{"join", core.JoinSpec(), workload.QuerySpec{NumPreds: 3, Seed: 2, Join: true}},
		{"quality-aware", core.QualityAwareSpec(), workload.QuerySpec{NumPreds: 3, Seed: 3}},
		{"approx-tier", core.ApproxTierSpec(), workload.QuerySpec{NumPreds: 3, Seed: 4}},
		{"approx-tier-2preds", core.ApproxTierSpec(), workload.QuerySpec{NumPreds: 2, Seed: 5}},
		{"sample-table", sampled, workload.QuerySpec{NumPreds: 3, Seed: 6}},
	}
	scale := ds.DB.Table(ds.Main).ScaleFactor
	for _, sp := range spaces {
		t.Run(sp.name, func(t *testing.T) {
			runs, nonEmpty, truncated := 0, 0, 0
			for qi, q := range workload.GenerateQueries(ds, 12, sp.spec) {
				if qi%4 == 3 && q.Join == nil {
					// One in four as the binned aggregation the paper's
					// heatmaps issue, so emit-time binning is covered too.
					for _, p := range q.Preds {
						if p.Kind == engine.PredGeo {
							q.Bin = &engine.BinSpec{Col: p.Col, Extent: p.Box, W: 16, H: 16}
						}
					}
				}
				est := ds.DB.ChoosePlan(q).EstRows
				check := func(label string, rq *engine.Query, h engine.Hint) {
					t.Helper()
					got, gotStats, gotErr := ds.DB.Run(rq, h)
					want, wantStats, wantErr := engine.RefRun(ds.DB, rq, h)
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("query %d %s: error %v, reference %v", qi, label, gotErr, wantErr)
					}
					if gotErr != nil {
						return
					}
					runs++
					if len(got.RowIDs) > 0 {
						nonEmpty++
					}
					if got.Truncated {
						truncated++
					}
					if gotStats != wantStats {
						t.Errorf("query %d %s: ExecStats\n got %+v\nwant %+v", qi, label, gotStats, wantStats)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("query %d %s: result diverges from reference (%d rows vs %d, truncated %v vs %v, weight %v vs %v)",
							qi, label, len(got.RowIDs), len(want.RowIDs), got.Truncated, want.Truncated, got.Weight, want.Weight)
					}
				}
				check("baseline", q, engine.Hint{})
				for _, o := range core.EnumerateOptions(ds.DB, q, sp.space) {
					rq, h := core.BuildRQ(q, o, est, scale)
					check(o.Label(len(q.Preds)), rq, h)
				}
			}
			if runs == 0 || nonEmpty == 0 {
				t.Fatalf("%d runs, %d with rows: the comparison exercised nothing", runs, nonEmpty)
			}
			if sp.name == "quality-aware" && truncated == 0 {
				t.Error("no LIMIT option stopped early: early-stop accounting went unchecked")
			}
		})
	}
}
