package engine

import (
	"math"
	"testing"
)

func TestTableAddColumn(t *testing.T) {
	tb := NewTable("t", 10)
	if err := tb.AddColumn(&Column{Name: "a", Type: ColInt64, Ints: []int64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if tb.Rows != 3 {
		t.Errorf("Rows = %d", tb.Rows)
	}
	if err := tb.AddColumn(&Column{Name: "a", Type: ColInt64, Ints: []int64{1, 2, 3}}); err == nil {
		t.Error("expected duplicate-column error")
	}
	if err := tb.AddColumn(&Column{Name: "b", Type: ColInt64, Ints: []int64{1}}); err == nil {
		t.Error("expected row-count mismatch error")
	}
	if !tb.HasColumn("a") || tb.HasColumn("zz") {
		t.Error("HasColumn misbehaves")
	}
	if got := tb.RealRows(); got != 30 {
		t.Errorf("RealRows = %v, want 30", got)
	}
}

func TestTableColPanicsOnMissing(t *testing.T) {
	tb := NewTable("t", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Col("missing")
}

func TestBuildIndexTypeChecks(t *testing.T) {
	tb := NewTable("t", 1)
	if err := tb.AddColumn(&Column{Name: "n", Type: ColInt64, Ints: []int64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn(&Column{Name: "p", Type: ColPoint, Points: []Point{{}, {}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BuildIndex("n", IndexRTree); err == nil {
		t.Error("rtree on int column should fail")
	}
	if _, err := tb.BuildIndex("p", IndexBTree); err == nil {
		t.Error("btree on point column should fail")
	}
	if _, err := tb.BuildIndex("n", IndexInverted); err == nil {
		t.Error("inverted on int column should fail")
	}
	if _, err := tb.BuildIndex("ghost", IndexBTree); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := tb.BuildIndex("n", IndexBTree); err != nil {
		t.Errorf("btree on int column: %v", err)
	}
	if tb.Index("n") == nil || tb.Index("p") != nil {
		t.Error("Index lookup misbehaves")
	}
}

func TestIndexLookupKindMismatch(t *testing.T) {
	tb := NewTable("t", 1)
	if err := tb.AddColumn(&Column{Name: "n", Type: ColInt64, Ints: []int64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	ix, err := tb.BuildIndex("n", IndexBTree)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Lookup(Predicate{Col: "n", Kind: PredKeyword, Word: 1}); err == nil {
		t.Error("btree serving keyword predicate should fail")
	}
	rows, _, err := ix.Lookup(Predicate{Col: "n", Kind: PredRange, Lo: 2, Hi: 3})
	if err != nil || rows.Len() != 2 {
		t.Errorf("Lookup = %v, %v", rows, err)
	}
}

func TestBuildSample(t *testing.T) {
	db := buildTestDB(t, 5000, 11)
	tb := db.Table("events")
	s, err := tb.BuildSample(25, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	s2, err := tb.BuildSample(25, 3)
	if err != nil || s2 != s {
		t.Error("BuildSample should cache")
	}
	frac := float64(s.Rows) / float64(tb.Rows)
	if math.Abs(frac-0.25) > 0.05 {
		t.Errorf("sample fraction %.3f, want ≈0.25", frac)
	}
	if s.SampleOf != tb || s.SamplePercent != 25 {
		t.Error("sample metadata wrong")
	}
	// Base row mapping is consistent with the stored columns.
	baseIDs := s.BaseRowIDs([]uint32{0, 1, 2})
	for i, base := range baseIDs {
		if s.Col("ts").Ints[i] != tb.Col("ts").Ints[base] {
			t.Fatalf("sample row %d maps to base %d but ts differs", i, base)
		}
	}
	// Indexes mirrored.
	for col := range tb.Indexes {
		if s.Index(col) == nil {
			t.Errorf("sample missing index on %s", col)
		}
	}
	// Invalid rates.
	if _, err := tb.BuildSample(0, 1); err == nil {
		t.Error("percent 0 should fail")
	}
	if _, err := tb.BuildSample(100, 1); err == nil {
		t.Error("percent 100 should fail")
	}
}

func TestBaseRowIDsIdentityForBaseTable(t *testing.T) {
	tb := NewTable("t", 1)
	rows := []uint32{5, 6, 7}
	got := tb.BaseRowIDs(rows)
	if !equalRows(got, rows) {
		t.Errorf("BaseRowIDs = %v", got)
	}
}

func TestDBAddTable(t *testing.T) {
	db := NewDB(ProfilePostgres(), 1)
	tb := NewTable("x", 1)
	if err := db.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(tb); err == nil {
		t.Error("expected duplicate-table error")
	}
	if db.Table("x") != tb || db.Table("y") != nil {
		t.Error("Table lookup misbehaves")
	}
}

func TestColumnNumericAtPanicsOnText(t *testing.T) {
	c := &Column{Name: "tx", Type: ColText, Texts: [][]uint32{{1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.NumericAt(0)
}

func TestColTypeStrings(t *testing.T) {
	for ct, want := range map[ColType]string{
		ColInt64: "BIGINT", ColFloat64: "DOUBLE", ColTime: "TIMESTAMP",
		ColPoint: "POINT", ColText: "TEXT",
	} {
		if ct.String() != want {
			t.Errorf("%d.String() = %q, want %q", ct, ct.String(), want)
		}
	}
}
