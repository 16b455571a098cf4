package engine

import (
	"math/rand"
	"testing"
)

// buildTestDB creates a small two-table database with all index kinds.
func buildTestDB(t testing.TB, rows int, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDB(ProfilePostgres(), seed)
	tb := NewTable("events", 100)

	const vocab = 50
	for w := 0; w < vocab; w++ {
		tb.Vocab.Intern(string(rune('a' + w%26)))
	}
	texts := make([][]uint32, rows)
	times := make([]int64, rows)
	points := make([]Point, rows)
	vals := make([]float64, rows)
	keys := make([]int64, rows)
	for i := 0; i < rows; i++ {
		k := rng.Intn(4) + 1
		toks := make([]uint32, 0, k)
		for j := 0; j < k; j++ {
			toks = append(toks, uint32(rng.Intn(vocab))+1)
		}
		texts[i] = SortTokens(toks)
		times[i] = int64(rng.Intn(10000))
		points[i] = Point{Lon: rng.Float64() * 100, Lat: rng.Float64() * 50}
		vals[i] = rng.Float64() * 1000
		keys[i] = int64(rng.Intn(rows/10 + 1))
	}
	for _, c := range []*Column{
		{Name: "text", Type: ColText, Texts: texts},
		{Name: "ts", Type: ColTime, Ints: times},
		{Name: "loc", Type: ColPoint, Points: points},
		{Name: "val", Type: ColFloat64, Floats: vals},
		{Name: "fk", Type: ColInt64, Ints: keys},
	} {
		if err := tb.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	for col, kind := range map[string]IndexKind{
		"text": IndexInverted, "ts": IndexBTree, "loc": IndexRTree, "val": IndexBTree,
	} {
		if _, err := tb.BuildIndex(col, kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddTable(tb); err != nil {
		t.Fatal(err)
	}

	// Dimension table for joins.
	dim := NewTable("dims", 100)
	nd := rows/10 + 1
	ids := make([]int64, nd)
	weights := make([]float64, nd)
	for i := 0; i < nd; i++ {
		ids[i] = int64(i)
		weights[i] = rng.Float64() * 10
	}
	if err := dim.AddColumn(&Column{Name: "id", Type: ColInt64, Ints: ids}); err != nil {
		t.Fatal(err)
	}
	if err := dim.AddColumn(&Column{Name: "weight", Type: ColFloat64, Floats: weights}); err != nil {
		t.Fatal(err)
	}
	if _, err := dim.BuildIndex("id", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if _, err := dim.BuildIndex("weight", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(dim); err != nil {
		t.Fatal(err)
	}
	return db
}

func testQuery(db *DB) *Query {
	return &Query{
		Table:      "events",
		OutputCols: []string{"loc"},
		Preds: []Predicate{
			{Col: "text", Kind: PredKeyword, Word: db.Table("events").Vocab.ID("c"), WordText: "c"},
			{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 7000},
			{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 20, MinLat: 10, MaxLon: 80, MaxLat: 40}},
		},
	}
}

// TestAllHintPlansEquivalent is the engine's central invariant: every hint
// set (any index subset, including forced sequential scan) must produce the
// exact same result rows for the same query.
func TestAllHintPlansEquivalent(t *testing.T) {
	db := buildTestDB(t, 4000, 1)
	q := testQuery(db)
	ref, _, err := db.Run(q, ForcedHint(nil, JoinAuto)) // sequential scan
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.RowIDs) == 0 {
		t.Fatal("test query matched nothing; adjust predicates")
	}
	for mask := 0; mask < 8; mask++ {
		positions := PositionsFromMask(uint32(mask), 3)
		res, stats, err := db.Run(q, ForcedHint(positions, JoinAuto))
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if !equalRows(res.RowIDs, ref.RowIDs) {
			t.Errorf("mask %d: %d rows, want %d (results differ)", mask, len(res.RowIDs), len(ref.RowIDs))
		}
		if stats.SimMs <= 0 {
			t.Errorf("mask %d: non-positive SimMs %v", mask, stats.SimMs)
		}
	}
}

// TestJoinMethodsEquivalent: all three join methods return identical rows.
func TestJoinMethodsEquivalent(t *testing.T) {
	db := buildTestDB(t, 4000, 2)
	q := testQuery(db)
	q.Join = &JoinClause{
		Table: "dims", LeftCol: "fk", RightCol: "id",
		Preds: []Predicate{{Col: "weight", Kind: PredRange, Lo: 2, Hi: 9}},
	}
	var ref []uint32
	for i, jm := range []JoinMethod{NestLoopJoin, HashJoin, MergeJoin} {
		res, stats, err := db.Run(q, ForcedHint([]int{1}, jm))
		if err != nil {
			t.Fatalf("%v: %v", jm, err)
		}
		rows := sortedCopy(res.RowIDs)
		if i == 0 {
			ref = rows
			if len(ref) == 0 {
				t.Fatal("join query matched nothing")
			}
			continue
		}
		if !equalRows(rows, ref) {
			t.Errorf("%v: %d rows, want %d", jm, len(rows), len(ref))
		}
		if stats.SimMs <= 0 {
			t.Errorf("%v: SimMs = %v", jm, stats.SimMs)
		}
	}
}

// TestLimitTruncates: a LIMIT produces a prefix of the full result and sets
// Truncated, with strictly less simulated work than the full run.
func TestLimitTruncates(t *testing.T) {
	db := buildTestDB(t, 4000, 3)
	q := testQuery(db)
	full, fullStats, err := db.Run(q, ForcedHint([]int{1, 2}, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.RowIDs) < 5 {
		t.Skip("too few matches to exercise LIMIT")
	}
	lq := q.Clone()
	lq.Limit = 3
	lim, limStats, err := db.Run(lq, ForcedHint([]int{1, 2}, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.RowIDs) != 3 || !lim.Truncated {
		t.Fatalf("limit run: %d rows, truncated=%v", len(lim.RowIDs), lim.Truncated)
	}
	if !equalRows(lim.RowIDs, full.RowIDs[:3]) {
		t.Error("LIMIT result is not a prefix of the full result")
	}
	if limStats.RowsFetched >= fullStats.RowsFetched {
		t.Errorf("limit fetched %d rows, full fetched %d — no early termination",
			limStats.RowsFetched, fullStats.RowsFetched)
	}
}

// TestSampleExecution: sample-table runs return base-table row ids that are
// a subset of the full result, with scaled weight.
func TestSampleExecution(t *testing.T) {
	db := buildTestDB(t, 6000, 4)
	tb := db.Table("events")
	if _, err := tb.BuildSample(20, 7); err != nil {
		t.Fatal(err)
	}
	q := testQuery(db)
	full, _, err := db.Run(q, ForcedHint([]int{1}, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	sq := q.Clone()
	sq.SamplePercent = 20
	samp, sampStats, err := db.Run(sq, ForcedHint([]int{1}, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	if samp.Weight != 5 {
		t.Errorf("sample weight = %v, want 5", samp.Weight)
	}
	inFull := make(map[uint32]bool, len(full.RowIDs))
	for _, r := range full.RowIDs {
		inFull[r] = true
	}
	for _, r := range samp.RowIDs {
		if !inFull[r] {
			t.Fatalf("sample row %d not in full result", r)
		}
	}
	// The 20% sample should return roughly 20% of the rows (loose band).
	frac := float64(len(samp.RowIDs)) / float64(len(full.RowIDs))
	if frac < 0.05 || frac > 0.5 {
		t.Errorf("sample returned fraction %.2f of full result", frac)
	}
	if sampStats.SimMs <= 0 {
		t.Error("sample run SimMs not positive")
	}
}

func TestRunErrors(t *testing.T) {
	db := buildTestDB(t, 500, 6)
	q := testQuery(db)

	if _, _, err := db.Run(&Query{Table: "nope"}, Hint{}); err == nil {
		t.Error("expected error for unknown table")
	}
	if _, _, err := db.Run(q, ForcedHint([]int{7}, JoinAuto)); err == nil {
		t.Error("expected error for out-of-range hint position")
	}
	sq := q.Clone()
	sq.SamplePercent = 33
	if _, _, err := db.Run(sq, Hint{}); err == nil {
		t.Error("expected error for missing sample table")
	}
	jq := q.Clone()
	jq.Join = &JoinClause{Table: "nope", LeftCol: "fk", RightCol: "id"}
	if _, _, err := db.Run(jq, ForcedHint([]int{1}, HashJoin)); err == nil {
		t.Error("expected error for unknown join table")
	}
}

// TestDeterministicExecution: identical runs produce identical stats
// (virtual time included).
func TestDeterministicExecution(t *testing.T) {
	db := buildTestDB(t, 2000, 7)
	q := testQuery(db)
	_, s1, err := db.Run(q, ForcedHint([]int{0, 1}, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := db.Run(q, ForcedHint([]int{0, 1}, JoinAuto))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestNoiseVariesByPlan: different plans get different (deterministic) noise.
func TestNoiseVariesByPlan(t *testing.T) {
	p := ProfilePostgres()
	f1 := p.noiseFactor(1, 100)
	f2 := p.noiseFactor(1, 101)
	f3 := p.noiseFactor(2, 100)
	if f1 == f2 || f1 == f3 {
		t.Errorf("noise factors should differ: %v %v %v", f1, f2, f3)
	}
	if f1 != p.noiseFactor(1, 100) {
		t.Error("noise not deterministic")
	}
}
