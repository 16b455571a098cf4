package engine

import "testing"

// TestBoundPredMatchesEval: a bound predicate answers exactly as
// Predicate.Eval on every row, for each (kind, column storage) pair the
// binder specialises, an unknown kind, and a range over a non-numeric column
// (both panic, and only once a row is actually tested).
func TestBoundPredMatchesEval(t *testing.T) {
	db := buildTestDB(t, 3_000, 13)
	tb := db.Table("events")
	preds := []Predicate{
		{Col: "text", Kind: PredKeyword, Word: tb.Vocab.ID("c")},
		{Col: "text", Kind: PredKeyword, Word: 1 << 30}, // no such token
		{Col: "ts", Kind: PredRange, Lo: 2000, Hi: 7000},
		{Col: "fk", Kind: PredRange, Lo: 10, Hi: 10},
		{Col: "val", Kind: PredRange, Lo: 250.5, Hi: 600},
		{Col: "val", Kind: PredRange, Lo: 600, Hi: 250.5}, // inverted: matches nothing
		{Col: "loc", Kind: PredGeo, Box: Rect{MinLon: 20, MinLat: 10, MaxLon: 80, MaxLat: 40}},
		{Col: "ts", Kind: PredKind(9)},
	}
	for _, p := range preds {
		b := p.bind(tb)
		matched := 0
		for r := 0; r < tb.Rows; r++ {
			got, want := b.eval(uint32(r)), p.Eval(tb, uint32(r))
			if got != want {
				t.Fatalf("%s row %d: bound %v, Eval %v", p, r, got, want)
			}
			if got {
				matched++
			}
		}
		t.Logf("%s: %d/%d rows", p, matched, tb.Rows)
	}

	bad := Predicate{Col: "loc", Kind: PredRange, Lo: 0, Hi: 1}
	b := bad.bind(tb) // binding alone must not panic: Eval only panics per row
	for name, fn := range map[string]func(){
		"bound": func() { b.eval(0) },
		"Eval":  func() { bad.Eval(tb, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: range over a point column did not panic", name)
				}
			}()
			fn()
		}()
	}

	// cheapFirst moves keyword tests last and keeps everything else in order.
	bound := bindPreds(nil, tb, preds[:7], true)
	var ops []boundOp
	for _, bp := range bound {
		ops = append(ops, bp.op)
	}
	want := []boundOp{opRangeInts, opRangeInts, opRangeFloats, opRangeFloats, opGeo, opKeyword, opKeyword}
	if len(ops) != len(want) {
		t.Fatalf("bound %d predicates, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("cheap-first order %v, want %v", ops, want)
		}
	}
}
