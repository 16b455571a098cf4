package engine

import (
	"testing"
	"testing/quick"
)

func TestChoosePlanRespectsMaxIndexes(t *testing.T) {
	db := buildTestDB(t, 3000, 21)
	q := testQuery(db)
	pe := db.ChoosePlan(q)
	if len(pe.Positions) > db.Profile.OptimizerMaxIndexes {
		t.Errorf("optimizer used %d indexes, cap is %d", len(pe.Positions), db.Profile.OptimizerMaxIndexes)
	}
	// Unlimited profile may use more.
	db.Profile.OptimizerMaxIndexes = 0
	db.InvalidateStats("events")
	pe = db.ChoosePlan(q)
	if len(pe.Positions) > len(q.Preds) {
		t.Errorf("positions out of range: %v", pe.Positions)
	}
	if pe.EstMs <= 0 {
		t.Errorf("EstMs = %v", pe.EstMs)
	}
}

func TestEstimatePlanForcedMatchesPositions(t *testing.T) {
	db := buildTestDB(t, 3000, 22)
	q := testQuery(db)
	h := ForcedHint([]int{0, 2}, JoinAuto)
	pe := db.EstimatePlanSels(q, h, db.EstimateSels(q))
	if len(pe.Positions) != 2 || pe.Positions[0] != 0 || pe.Positions[1] != 2 {
		t.Errorf("Positions = %v", pe.Positions)
	}
	if len(pe.EstSels) != len(q.Preds) {
		t.Errorf("EstSels len = %d", len(pe.EstSels))
	}
	for _, s := range pe.EstSels {
		if s <= 0 || s > 1 {
			t.Errorf("selectivity %v out of (0,1]", s)
		}
	}
	// Unforced falls back to the optimizer's choice.
	auto := db.EstimatePlanSels(q, Hint{}, db.EstimateSels(q))
	chosen := db.ChoosePlan(q)
	if len(auto.Positions) != len(chosen.Positions) {
		t.Errorf("auto EstimatePlanSels %v != ChoosePlan %v", auto.Positions, chosen.Positions)
	}
}

// TestEstimateAccessMonotonicity: adding rows never lowers the full-scan
// estimate, and the output cardinality never exceeds the input.
func TestEstimateAccessMonotonicity(t *testing.T) {
	m := DefaultCostModel()
	prop := func(nRaw uint32, s1, s2, s3 float64) bool {
		n := float64(nRaw%1_000_000) + 1
		sels := []float64{clampSel(abs1(s1)), clampSel(abs1(s2)), clampSel(abs1(s3))}
		ms0, out0 := estimateAccess(m, n, sels, nil)
		ms1, out1 := estimateAccess(m, 2*n, sels, nil)
		if ms1 < ms0 || out0 > n+1e-9 || out1 > 2*n+1e-9 {
			return false
		}
		msIdx, outIdx := estimateAccess(m, n, sels, []int{0, 1})
		return msIdx > 0 && outIdx <= n+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs1(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 1 {
		x /= 10
	}
	return x
}

func TestChoosePlanPicksJoinMethod(t *testing.T) {
	db := buildTestDB(t, 3000, 23)
	q := testQuery(db)
	q.Join = &JoinClause{Table: "dims", LeftCol: "fk", RightCol: "id",
		Preds: []Predicate{{Col: "weight", Kind: PredRange, Lo: 0, Hi: 5}}}
	pe := db.ChoosePlan(q)
	if pe.Join == JoinAuto {
		t.Error("join queries must resolve a concrete join method")
	}
}

// TestOptimizerPrefersKeywordForFrequentWords reproduces the Fig. 1 failure:
// on a Zipf text column, the optimizer's frequency-blind keyword estimate
// makes it pick the inverted-index plan even for head words where that plan
// is slow.
func TestOptimizerPrefersKeywordForFrequentWords(t *testing.T) {
	db := buildTestDB(t, 20000, 24)
	tb := db.Table("events")
	// Make word 1 appear in ~40% of the rows.
	for i := 0; i < tb.Rows; i++ {
		if i%5 < 2 {
			tb.Col("text").Texts[i] = SortTokens(append(tb.Col("text").Texts[i], 1))
		}
	}
	if _, err := tb.BuildIndex("text", IndexInverted); err == nil {
		t.Log("rebuilt index unexpectedly") // already indexed; rebuild replaces
	}
	db.InvalidateStats("events")
	q := testQuery(db)
	q.Preds[0].Word = 1
	// Narrow time range: the B+-tree plan is the fast one.
	q.Preds[1].Lo, q.Preds[1].Hi = 100, 150
	pe := db.ChoosePlan(q)
	if len(pe.Positions) != 1 || pe.Positions[0] != 0 {
		t.Skipf("optimizer picked %v; scenario needs the keyword plan to look cheapest", pe.Positions)
	}
	// The estimate must undercut reality by a wide margin.
	_, stats, err := db.Run(q, ForcedHint(pe.Positions, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimMs < 2*pe.EstMs {
		t.Errorf("expected gross underestimation: est %.0f ms vs actual %.0f ms", pe.EstMs, stats.SimMs)
	}
}

func TestPopcount(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {1, 1}, {3, 2}, {255, 8}, {256, 1}, {0b1011011, 5},
	} {
		if got := popcount(tc.in); got != tc.want {
			t.Errorf("popcount(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
