package engine

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestMaskRoundTrip: positions → mask → positions is the identity for any
// position set (property test).
func TestMaskRoundTrip(t *testing.T) {
	prop := func(raw []uint8) bool {
		seen := map[int]bool{}
		var pos []int
		for _, r := range raw {
			p := int(r) % 20
			if !seen[p] {
				seen[p] = true
				pos = append(pos, p)
			}
		}
		mask := MaskFromPositions(pos)
		got := PositionsFromMask(mask, 20)
		if len(got) != len(pos) {
			return false
		}
		for _, p := range got {
			if !seen[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySQLRendering(t *testing.T) {
	q := &Query{
		Table:      "tweets",
		OutputCols: []string{"id", "coordinates"},
		Preds: []Predicate{
			{Col: "text", Kind: PredKeyword, WordText: "covid"},
			{Col: "created_at", Kind: PredRange, Lo: 1, Hi: 2},
			{Col: "coordinates", Kind: PredGeo, Box: Rect{MinLon: -124.4, MinLat: 32.5, MaxLon: -114.1, MaxLat: 42}},
		},
	}
	plain := q.SQL(Hint{})
	for _, want := range []string{"SELECT id, coordinates", "FROM tweets", `text contains "covid"`, "BETWEEN", "coordinates IN"} {
		if !strings.Contains(plain, want) {
			t.Errorf("plain SQL missing %q:\n%s", want, plain)
		}
	}
	if strings.Contains(plain, "/*+") {
		t.Error("plain SQL should have no hint comment")
	}

	hinted := q.SQL(ForcedHint([]int{1}, JoinAuto))
	if !strings.Contains(hinted, "/*+ Index-Scan(tweets created_at) */") {
		t.Errorf("hinted SQL missing hint:\n%s", hinted)
	}
	seq := q.SQL(ForcedHint(nil, JoinAuto))
	if !strings.Contains(seq, "Seq-Scan(tweets)") {
		t.Errorf("forced seq scan missing:\n%s", seq)
	}

	// Join + approximation rendering.
	jq := q.Clone()
	jq.Join = &JoinClause{Table: "users", LeftCol: "user_id", RightCol: "id",
		Preds: []Predicate{{Col: "tweet_cnt", Kind: PredRange, Lo: 100, Hi: 5000}}}
	jq.SamplePercent = 20
	jsql := jq.SQL(ForcedHint([]int{0}, NestLoopJoin))
	for _, want := range []string{"tweets_sample20", "JOIN users ON tweets_sample20.user_id = users.id",
		"Nest-Loop-Join(tweets_sample20 users)", "users.tweet_cnt BETWEEN"} {
		if !strings.Contains(jsql, want) {
			t.Errorf("join SQL missing %q:\n%s", want, jsql)
		}
	}

	// Limit rendering.
	lq := q.Clone()
	lq.Limit = 100
	if lsql := lq.SQL(Hint{}); !strings.HasSuffix(lsql, " LIMIT 100;") {
		t.Errorf("limit SQL does not end in the LIMIT clause:\n%s", lsql)
	}
}

func TestQueryClone(t *testing.T) {
	q := &Query{
		Table: "t",
		Preds: []Predicate{{Col: "a", Kind: PredRange, Lo: 1, Hi: 2}},
		Join:  &JoinClause{Table: "u", Preds: []Predicate{{Col: "b", Kind: PredRange}}},
	}
	cp := q.Clone()
	cp.Preds[0].Lo = 99
	cp.Join.Preds[0].Col = "changed"
	cp.Limit = 7
	if q.Preds[0].Lo == 99 || q.Join.Preds[0].Col == "changed" || q.Limit == 7 {
		t.Error("Clone shares mutable state with the original")
	}
}

func TestJoinMethodString(t *testing.T) {
	for jm, want := range map[JoinMethod]string{
		JoinAuto: "Auto", NestLoopJoin: "Nest-Loop-Join",
		HashJoin: "Hash-Join", MergeJoin: "Merge-Join",
	} {
		if jm.String() != want {
			t.Errorf("%d.String() = %q", jm, jm.String())
		}
	}
}
