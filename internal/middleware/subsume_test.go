package middleware

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// TestAxisAlign pins the cell-lattice alignment predicate: equal cell size
// and an integral offset inside the parent admit slicing; everything else
// falls through.
func TestAxisAlign(t *testing.T) {
	// Parent: [0,32) split into 32 unit cells.
	cases := []struct {
		name       string
		sMin, sMax float64
		sn         int
		off        int
		ok         bool
	}{
		{"exact-window", 4, 12, 8, 4, true},
		{"full-span", 0, 32, 32, 0, true},
		{"float-noise", 4 + 3e-8, 12 + 3e-8, 8, 4, true},
		{"half-cell-offset", 4.5, 12.5, 8, 0, false},
		{"finer-cells", 4, 12, 16, 0, false},
		{"coarser-cells", 4, 12, 4, 0, false},
		{"before-parent", -2, 6, 8, 0, false},
		{"past-parent", 28, 36, 8, 0, false},
		{"zero-span", 4, 4, 0, 0, false},
	}
	for _, c := range cases {
		off, ok := axisAlign(0, 32, 32, c.sMin, c.sMax, c.sn)
		if ok != c.ok || (ok && off != c.off) {
			t.Errorf("%s: axisAlign = (%d,%v), want (%d,%v)", c.name, off, ok, c.off, c.ok)
		}
	}
}

// TestSliceBinsSparse: slicing copies exactly the window's cells and keeps
// the sparse representation — absent parent cells stay absent.
func TestSliceBinsSparse(t *testing.T) {
	// Parent 4×4 grid with three populated cells.
	parent := map[int]float64{
		1*4 + 1: 10, // inside the window
		2*4 + 2: 20, // inside the window
		0*4 + 0: 99, // outside
	}
	got := sliceBins(parent, 4, 1, 1, 2, 2)
	want := map[int]float64{0: 10, 3: 20} // (1,1)→(0,0), (2,2)→(1,1) in the 2×2 window
	if len(got) != len(want) {
		t.Fatalf("sliced bins = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("sliced bins = %v, want %v", got, want)
		}
	}
}

// subsumeServers builds two servers over one dataset: the subject (with
// containment answering) and a reference that always executes (subsumption
// disabled, caches disabled so nothing is ever reused).
func subsumeServers(t *testing.T) (subject, reference *Server) {
	t.Helper()
	ds := testDataset(t)
	subject, err := NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(),
		ServerConfig{DefaultBudgetMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	reference, err = NewServerWithConfig(ds, core.OracleRewriter{}, core.HintOnlySpec(),
		ServerConfig{DefaultBudgetMs: 500, PlanCacheSize: -1, ResultCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	return subject, reference
}

// TestSubsumptionByteIdentical is the differential property test: randomized
// aligned sub-viewports of a cached parent heatmap must serialize to exactly
// the bytes direct execution produces. Every sub-request is served by the
// subject (which may slice the warm parent) and by the cache-less reference
// (which always executes); the marshaled responses must match byte for byte.
func TestSubsumptionByteIdentical(t *testing.T) {
	subject, reference := subsumeServers(t)
	ext := subject.DS.Extent
	const pw, ph = 32, 16
	parent := Request{
		Keyword: "word0003",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region:  ext, Kind: VizHeatmap, GridW: pw, GridH: ph, BudgetMs: 500,
	}
	if _, err := subject.Handle(parent); err != nil {
		t.Fatal(err)
	}

	cellW := (ext.MaxLon - ext.MinLon) / pw
	cellH := (ext.MaxLat - ext.MinLat) / ph
	rng := rand.New(rand.NewSource(42))
	subsumedBefore := subject.Metrics().Snapshot().SubsumedHits
	for i := 0; i < 25; i++ {
		sw, sh := 1+rng.Intn(pw-1), 1+rng.Intn(ph-1)
		ox, oy := rng.Intn(pw-sw+1), rng.Intn(ph-sh+1)
		sub := parent
		sub.GridW, sub.GridH = sw, sh
		sub.Region = engine.Rect{
			MinLon: ext.MinLon + float64(ox)*cellW, MinLat: ext.MinLat + float64(oy)*cellH,
			MaxLon: ext.MinLon + float64(ox+sw)*cellW, MaxLat: ext.MinLat + float64(oy+sh)*cellH,
		}
		got, err := subject.Handle(sub)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.Handle(sub)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("sub-request %d (%d×%d at %d,%d): sliced response differs from direct execution\nsliced: %s\ndirect: %s",
				i, sw, sh, ox, oy, gb, wb)
		}
	}
	if hits := subject.Metrics().Snapshot().SubsumedHits - subsumedBefore; hits == 0 {
		t.Fatal("no sub-request was answered by containment slicing — the property test exercised nothing")
	}
}

// TestSubsumptionVersionGate: a data-version bump (sync ingest flush) must
// retire cached parents — a sub-request after the flush re-executes at the
// new version rather than slicing pre-flush bins.
func TestSubsumptionVersionGate(t *testing.T) {
	subject, _ := subsumeServers(t)
	ext := subject.DS.Extent
	parent := Request{
		Keyword: "word0003",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region:  ext, Kind: VizHeatmap, GridW: 16, GridH: 8, BudgetMs: 500,
	}
	if _, err := subject.Handle(parent); err != nil {
		t.Fatal(err)
	}

	stream, err := workload.NewIngestStream(subject.DS, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subject.Ingest(stream.Next(16), true); err != nil {
		t.Fatal(err)
	}

	before := subject.Metrics().Snapshot().SubsumedHits
	sub := parent
	sub.GridW, sub.GridH = 8, 4
	cellW := (ext.MaxLon - ext.MinLon) / 16
	cellH := (ext.MaxLat - ext.MinLat) / 8
	sub.Region = engine.Rect{
		MinLon: ext.MinLon + 2*cellW, MinLat: ext.MinLat + 2*cellH,
		MaxLon: ext.MinLon + 10*cellW, MaxLat: ext.MinLat + 6*cellH,
	}
	if _, err := subject.Handle(sub); err != nil {
		t.Fatal(err)
	}
	if hits := subject.Metrics().Snapshot().SubsumedHits - before; hits != 0 {
		t.Fatalf("sub-request sliced a pre-flush parent across a data-version bump (%d subsumed hits)", hits)
	}
}

// TestSubsumptionSkipsScatterAndMisaligned: scatter requests and non-aligned
// heatmap viewports never take the containment path.
func TestSubsumptionSkipsScatterAndMisaligned(t *testing.T) {
	subject, reference := subsumeServers(t)
	ext := subject.DS.Extent
	parent := Request{
		Keyword: "word0003",
		From:    time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		To:      time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC),
		Region:  ext, Kind: VizHeatmap, GridW: 16, GridH: 8, BudgetMs: 500,
	}
	if _, err := subject.Handle(parent); err != nil {
		t.Fatal(err)
	}
	scatterParent := parent
	scatterParent.Kind = VizScatter
	if _, err := subject.Handle(scatterParent); err != nil {
		t.Fatal(err)
	}

	cellW := (ext.MaxLon - ext.MinLon) / 16
	cellH := (ext.MaxLat - ext.MinLat) / 8
	window := engine.Rect{
		MinLon: ext.MinLon + 2*cellW, MinLat: ext.MinLat + 2*cellH,
		MaxLon: ext.MinLon + 10*cellW, MaxLat: ext.MinLat + 6*cellH,
	}

	before := subject.Metrics().Snapshot().SubsumedHits
	// Scatter sub-window: containment must not answer (point order is a plan
	// artifact), but the response must still match direct execution.
	scatterSub := scatterParent
	scatterSub.GridW, scatterSub.GridH = 8, 4
	scatterSub.Region = window
	got, err := subject.Handle(scatterSub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.Handle(scatterSub)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		t.Fatal("scatter sub-request diverged from direct execution")
	}

	// Misaligned heatmap: offset by half a cell — must execute, not slice.
	mis := parent
	mis.GridW, mis.GridH = 8, 4
	mis.Region = engine.Rect{
		MinLon: ext.MinLon + 2.5*cellW, MinLat: ext.MinLat + 2*cellH,
		MaxLon: ext.MinLon + 10.5*cellW, MaxLat: ext.MinLat + 6*cellH,
	}
	if _, err := subject.Handle(mis); err != nil {
		t.Fatal(err)
	}
	if hits := subject.Metrics().Snapshot().SubsumedHits - before; hits != 0 {
		t.Fatalf("scatter or misaligned request took the containment path (%d subsumed hits)", hits)
	}
}

// TestRegionIndexEviction: the containment index is FIFO-bounded and drops
// entries whose backing response is gone.
func TestRegionIndexEviction(t *testing.T) {
	ri := newRegionIndex(2)
	fam := famKey{keyword: "k", kind: VizHeatmap, budget: 500}
	for i := 0; i < 3; i++ {
		key := ResultKey{SQL: string(rune('a' + i)), Kind: VizHeatmap, GridW: 4, GridH: 4}
		ri.add(fam, regionEntry{key: key, region: engine.Rect{MaxLon: 1, MaxLat: 1}, gw: 4, gh: 4})
	}
	if got := len(ri.candidates(fam)); got != 2 {
		t.Fatalf("index holds %d entries after overflow, want 2 (FIFO cap)", got)
	}
	// The oldest entry must be the evicted one.
	for _, e := range ri.candidates(fam) {
		if e.key.SQL == "a" {
			t.Fatal("FIFO eviction kept the oldest entry")
		}
	}
}
