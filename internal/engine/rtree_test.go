package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRTreeSearchMatchesBruteForce: for random point sets and boxes, the
// R-tree search returns exactly the brute-force result.
func TestRTreeSearchMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 1
		points := make([]Point, n)
		rows := make([]uint32, n)
		for i := range points {
			points[i] = Point{Lon: rng.Float64()*100 - 50, Lat: rng.Float64()*60 - 30}
			rows[i] = uint32(i)
		}
		tree := NewRTree(points, rows)
		for trial := 0; trial < 8; trial++ {
			cx, cy := rng.Float64()*100-50, rng.Float64()*60-30
			w, h := rng.Float64()*30, rng.Float64()*20
			box := Rect{MinLon: cx - w/2, MinLat: cy - h/2, MaxLon: cx + w/2, MaxLat: cy + h/2}
			rows, entries := tree.Search(box)
			got := rows.AppendTo(nil)
			if entries <= 0 {
				return false
			}
			var want []uint32
			for i, p := range points {
				if box.Contains(p) {
					want = append(want, uint32(i))
				}
			}
			if !equalRows(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRTreeEmpty(t *testing.T) {
	tree := NewRTree(nil, nil)
	rows, _ := tree.Search(Rect{MinLon: -180, MinLat: -90, MaxLon: 180, MaxLat: 90})
	if rows.Len() != 0 {
		t.Errorf("empty tree returned rows: %v", rows)
	}
	if tree.Len() != 0 {
		t.Errorf("Len = %d", tree.Len())
	}
}

func TestRTreeResultSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	points := make([]Point, n)
	rows := make([]uint32, n)
	for i := range points {
		points[i] = Point{Lon: rng.Float64(), Lat: rng.Float64()}
		rows[i] = uint32(i)
	}
	tree := NewRTree(points, rows)
	found, _ := tree.Search(Rect{MinLon: 0.2, MinLat: 0.2, MaxLon: 0.8, MaxLat: 0.8})
	got := found.AppendTo(nil)
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("result not strictly sorted at %d: %d ≥ %d", i, got[i-1], got[i])
		}
	}
	if len(got) == 0 {
		t.Fatal("expected matches in the central box")
	}
}

func TestRectOperations(t *testing.T) {
	a := Rect{MinLon: 0, MinLat: 0, MaxLon: 10, MaxLat: 10}
	b := Rect{MinLon: 5, MinLat: 5, MaxLon: 15, MaxLat: 15}
	c := Rect{MinLon: 20, MinLat: 20, MaxLon: 25, MaxLat: 25}
	if !a.Intersects(b) || b.Intersects(c) || !a.Intersects(a) {
		t.Error("Intersects misbehaves")
	}
	if !a.Contains(Point{5, 5}) || a.Contains(Point{11, 5}) {
		t.Error("Contains misbehaves")
	}
	if !a.ContainsRect(Rect{MinLon: 1, MinLat: 1, MaxLon: 9, MaxLat: 9}) || a.ContainsRect(b) {
		t.Error("ContainsRect misbehaves")
	}
	ext := a.Extend(c)
	if ext.MinLon != 0 || ext.MaxLon != 25 || ext.MaxLat != 25 {
		t.Errorf("Extend = %+v", ext)
	}
	if got := a.Area(); got != 100 {
		t.Errorf("Area = %v", got)
	}
	if got := (Rect{MinLon: 5, MaxLon: 3}).Area(); got != 0 {
		t.Errorf("inverted rect area = %v, want 0", got)
	}
}
