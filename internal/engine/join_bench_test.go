package engine

import (
	"fmt"
	"testing"
)

// BenchmarkEngineExecuteJoinPlan measures the executor's join paths. Each
// run allocates its own hash-join key set and merge-join sort buffer, and
// every probe is a Visit descent that allocates nothing, so allocations do
// not grow with the probes — alloc_guard_test.go pins that.
func BenchmarkEngineExecuteJoinPlan(b *testing.B) {
	db := buildTestDB(b, 20_000, 5)
	q := testQuery(db)
	q.Join = &JoinClause{
		Table: "dims", LeftCol: "fk", RightCol: "id",
		Preds: []Predicate{{Col: "weight", Kind: PredRange, Lo: 2, Hi: 9}},
	}
	for _, jm := range []JoinMethod{NestLoopJoin, HashJoin, MergeJoin} {
		b.Run(fmt.Sprint(jm), func(b *testing.B) {
			hint := ForcedHint([]int{1}, jm)
			if _, _, err := db.Run(q, hint); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Run(q, hint); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
