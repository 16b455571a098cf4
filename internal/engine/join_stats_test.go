package engine

import (
	"slices"
	"testing"
)

// TestJoinStreamingStatsMatchReference pins the join probe paths (one
// BTree.Visit per probe) to a reference reimplementation with a
// materializing Range and an early-exit match loop. The golden traces only
// cover non-join queries, so this is the in-package guarantee that
// ExecStats — and therefore virtual time, ground-truth labels, and trained
// agents — match the materializing probe.
func TestJoinStreamingStatsMatchReference(t *testing.T) {
	db := buildTestDB(t, 6_000, 5)
	q := testQuery(db)
	q.Join = &JoinClause{
		Table: "dims", LeftCol: "fk", RightCol: "id",
		Preds: []Predicate{{Col: "weight", Kind: PredRange, Lo: 2, Hi: 9}},
	}
	for _, jm := range []JoinMethod{NestLoopJoin, MergeJoin} {
		res, stats, err := db.Run(q, ForcedHint([]int{1}, jm))
		if err != nil {
			t.Fatalf("%v: %v", jm, err)
		}
		wantEntries, wantPredEvals, wantRows := referenceJoin(t, db, q, jm)
		if stats.PredEvals != wantPredEvals {
			t.Errorf("%v: PredEvals = %d, want %d", jm, stats.PredEvals, wantPredEvals)
		}
		if stats.IndexEntries != wantEntries {
			t.Errorf("%v: IndexEntries = %d, want %d", jm, stats.IndexEntries, wantEntries)
		}
		if !equalRows(res.RowIDs, wantRows) {
			t.Errorf("%v: emitted rows diverge from reference", jm)
		}
	}
}

// referenceJoin recomputes the probe phase by materializing: left
// candidates from the forced ts-index access path, then one materializing
// Range(key, key) per probe with the early-exit inner-match loop. Returns the probe-phase IndexEntries and PredEvals contributions
// plus the emitted left rows.
func referenceJoin(t *testing.T, db *DB, q *Query, jm JoinMethod) (entries, predEvals int, rows []uint32) {
	t.Helper()
	events := db.Table("events")
	inner := db.Table("dims")
	ix := inner.Index(q.Join.RightCol)

	// Access path (identical before and after): ts-index scan + residuals.
	tsRows, accessEntries, err := events.Index("ts").Lookup(q.Preds[1])
	if err != nil {
		t.Fatal(err)
	}
	entries += accessEntries
	var candidates []uint32
	for _, r := range tsRows.AppendTo(nil) {
		ok := true
		for i, p := range q.Preds {
			if i == 1 {
				continue
			}
			predEvals++
			if !p.Eval(events, r) {
				ok = false
				break
			}
		}
		if ok {
			candidates = append(candidates, r)
		}
	}

	leftKeys := events.Col(q.Join.LeftCol)
	probe := func(key float64, leftRow uint32) {
		matches, e := ix.btree.Range(key, key)
		entries += e
		for _, ir := range matches {
			pass := true
			for _, p := range q.Join.Preds {
				predEvals++
				if !p.Eval(inner, ir) {
					pass = false
					break
				}
			}
			if pass {
				rows = append(rows, leftRow)
				return
			}
		}
	}
	switch jm {
	case NestLoopJoin:
		for _, lr := range candidates {
			probe(leftKeys.NumericAt(lr), lr)
		}
	case MergeJoin:
		kvs := make([]joinKV, 0, len(candidates))
		for _, lr := range candidates {
			kvs = append(kvs, joinKV{leftKeys.NumericAt(lr), lr})
		}
		slices.SortFunc(kvs, func(a, b joinKV) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			default:
				return 0
			}
		})
		for _, kv := range kvs {
			probe(kv.key, kv.row)
		}
	default:
		t.Fatalf("unsupported reference method %v", jm)
	}
	return entries, predEvals, rows
}
