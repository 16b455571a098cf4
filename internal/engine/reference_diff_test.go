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
// join methods, LIMIT early-stop, sample tables — plus the unhinted baseline,
// and requires the production executor (bitset-ordered lookups,
// column-bound predicates, cheap-first scans) to agree
// with the reference executor on the whole Result and on every ExecStats
// field, virtual time included.
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
		{"sample-table", sampled, workload.QuerySpec{NumPreds: 3, Seed: 6}},
	}
	scale := ds.DB.Table(ds.Main).ScaleFactor
	for _, sp := range spaces {
		t.Run(sp.name, func(t *testing.T) {
			runs, nonEmpty, truncated := 0, 0, 0
			for qi, q := range workload.GenerateQueries(ds, 12, sp.spec) {
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

// TestCounterMatchesReference: for every rewrite of a generator query that a
// Counter accepts — exact, single-table, all predicates indexed — the counted
// ExecStats equal the reference executor's field by field, SimMs included,
// whether the backend follows hints or drops some of them. One Counter serves
// all of a query's exact rewrites, as in a context build, so its shared
// intersections are exercised in every order the option spaces ask for them.
// Every rewrite it declines must be one the contract excludes.
func TestCounterMatchesReference(t *testing.T) {
	for _, drop := range []float64{0, 0.6} {
		cfg := workload.TwitterConfig()
		cfg.Rows = 6_000
		cfg.Scale = 100e6 / float64(cfg.Rows)
		ds, err := workload.Twitter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds.DB.Profile.HintDropProb = drop
		spaces := []struct {
			space core.SpaceSpec
			spec  workload.QuerySpec
		}{
			{core.HintOnlySpec(), workload.QuerySpec{NumPreds: 3, Seed: 1}},
			{core.HintOnlySpec(), workload.QuerySpec{NumPreds: 2, Seed: 7}},
			{core.HintOnlySpec(), workload.QuerySpec{NumPreds: 1, Seed: 8}},
			{core.JoinSpec(), workload.QuerySpec{NumPreds: 3, Seed: 2, Join: true}},
			{core.QualityAwareSpec(), workload.QuerySpec{NumPreds: 3, Seed: 3}},
		}
		scale := ds.DB.Table(ds.Main).ScaleFactor
		derived, declined := 0, 0
		for _, sp := range spaces {
			for qi, q := range workload.GenerateQueries(ds, 12, sp.spec) {
				memo := engine.NewLookupMemo(nil)
				counter := ds.DB.NewCounter(q, memo)
				est := ds.DB.ChoosePlan(q).EstRows
				check := func(label string, rq *engine.Query, h engine.Hint) {
					t.Helper()
					c := counter
					if !reflect.DeepEqual(rq, q) {
						c = ds.DB.NewCounter(rq, memo)
					}
					got, ok := c.Stats(h)
					if !ok {
						declined++
						if rq.Join == nil && rq.Limit == 0 && rq.SamplePercent == 0 {
							t.Errorf("drop=%v query %d %s: an exact single-table rewrite was not derived", drop, qi, label)
						}
						return
					}
					derived++
					_, want, err := engine.RefRun(ds.DB, rq, h)
					if err != nil {
						t.Fatalf("drop=%v query %d %s: reference: %v", drop, qi, label, err)
					}
					if got != want {
						t.Errorf("drop=%v query %d %s: derived ExecStats\n got %+v\nwant %+v", drop, qi, label, got, want)
					}
				}
				check("baseline", q, engine.Hint{})
				for _, o := range core.EnumerateOptions(ds.DB, q, sp.space) {
					rq, h := core.BuildRQ(q, o, est, scale)
					check(o.Label(len(q.Preds)), rq, h)
				}
			}
		}
		if derived == 0 || declined == 0 {
			t.Errorf("drop=%v: %d derived, %d declined: one side of the contract went unchecked", drop, derived, declined)
		}
	}
}

// TestCounterResultMatchesReference: the answer a Counter hands out without
// executing is the reference executor's whole Result — rows, points and
// weight — under every exact hint of the generator's queries, one predicate to
// three. These lists mix the array and bitmap encodings in
// every pairing a build meets.
func TestCounterResultMatchesReference(t *testing.T) {
	cfg := workload.TwitterConfig()
	cfg.Rows = 6_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compared, nonEmpty := 0, 0
	for _, spec := range []workload.QuerySpec{{NumPreds: 3, Seed: 1}, {NumPreds: 2, Seed: 7}, {NumPreds: 1, Seed: 8}} {
		for qi, q := range workload.GenerateQueries(ds, 12, spec) {
			counter := ds.DB.NewCounter(q, engine.NewLookupMemo(nil))
			if counter == nil {
				t.Fatalf("query %d (%d preds) is not countable", qi, spec.NumPreds)
			}
			got := counter.Result()
			if len(got.RowIDs) > 0 {
				nonEmpty++
			}
			for _, o := range core.EnumerateOptions(ds.DB, q, core.HintOnlySpec()) {
				rq, h := core.BuildRQ(q, o, 0, 1)
				want, _, err := engine.RefRun(ds.DB, rq, h)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d preds, query %d, %s: counted result (%d rows) differs from the reference (%d rows)",
						spec.NumPreds, qi, o.Label(len(q.Preds)), len(got.RowIDs), len(want.RowIDs))
				}
				compared++
			}
		}
	}
	if compared == 0 || nonEmpty == 0 {
		t.Fatalf("%d comparisons, %d non-empty answers: the test exercised nothing", compared, nonEmpty)
	}
}
