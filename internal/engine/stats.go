package engine

import "math"

// histBuckets is the number of equi-width histogram buckets the optimizer
// keeps per numeric column — deliberately coarse, like a real system's
// default statistics target.
const histBuckets = 40

// geoGridDim is the resolution of the optimizer's spatial grid statistic.
const geoGridDim = 16

// Histogram is an equi-width histogram over a numeric/time column.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// BuildHistogram scans the column once and builds the histogram.
func BuildHistogram(c *Column) *Histogram {
	n := c.Len()
	h := &Histogram{Counts: make([]int, histBuckets), Total: n}
	if n == 0 {
		return h
	}
	h.Min, h.Max = c.NumericAt(0), c.NumericAt(0)
	for i := 1; i < n; i++ {
		v := c.NumericAt(uint32(i))
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	width := (h.Max - h.Min) / float64(histBuckets)
	if width <= 0 {
		h.Counts[0] = n
		return h
	}
	for i := 0; i < n; i++ {
		b := int((c.NumericAt(uint32(i)) - h.Min) / width)
		if b >= histBuckets {
			b = histBuckets - 1
		}
		h.Counts[b]++
	}
	return h
}

// EstimateRange returns the estimated fraction of rows in [lo, hi], assuming
// uniformity within buckets.
func (h *Histogram) EstimateRange(lo, hi float64) float64 {
	if h.Total == 0 || hi < lo {
		return 0
	}
	if h.Max <= h.Min {
		if lo <= h.Min && h.Min <= hi {
			return 1
		}
		return 0
	}
	width := (h.Max - h.Min) / float64(len(h.Counts))
	est := 0.0
	for b, cnt := range h.Counts {
		bLo := h.Min + float64(b)*width
		bHi := bLo + width
		overlapLo := math.Max(lo, bLo)
		overlapHi := math.Min(hi, bHi)
		if overlapHi <= overlapLo {
			continue
		}
		est += float64(cnt) * (overlapHi - overlapLo) / width
	}
	sel := est / float64(h.Total)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// GeoGrid is a coarse spatial count grid over a point column.
type GeoGrid struct {
	Extent Rect
	Dim    int
	Counts []int
	Total  int
}

// BuildGeoGrid builds the grid statistic from a point column.
func BuildGeoGrid(c *Column) *GeoGrid {
	g := &GeoGrid{Dim: geoGridDim, Counts: make([]int, geoGridDim*geoGridDim), Total: len(c.Points)}
	if len(c.Points) == 0 {
		return g
	}
	g.Extent = PointRect(c.Points[0])
	for _, p := range c.Points[1:] {
		g.Extent = g.Extent.Extend(PointRect(p))
	}
	for _, p := range c.Points {
		x, y := g.cell(p)
		g.Counts[y*g.Dim+x]++
	}
	return g
}

func (g *GeoGrid) cell(p Point) (int, int) {
	w := g.Extent.MaxLon - g.Extent.MinLon
	h := g.Extent.MaxLat - g.Extent.MinLat
	if w <= 0 || h <= 0 {
		return 0, 0
	}
	x := int(float64(g.Dim) * (p.Lon - g.Extent.MinLon) / w)
	y := int(float64(g.Dim) * (p.Lat - g.Extent.MinLat) / h)
	if x >= g.Dim {
		x = g.Dim - 1
	}
	if y >= g.Dim {
		y = g.Dim - 1
	}
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	return x, y
}

// EstimateBox returns the estimated fraction of rows inside box, assuming
// uniformity within each grid cell. The coarse grid makes small boxes in
// dense cities badly estimated — a realistic optimizer failure mode.
func (g *GeoGrid) EstimateBox(box Rect) float64 {
	if g.Total == 0 {
		return 0
	}
	cellW := (g.Extent.MaxLon - g.Extent.MinLon) / float64(g.Dim)
	cellH := (g.Extent.MaxLat - g.Extent.MinLat) / float64(g.Dim)
	if cellW <= 0 || cellH <= 0 {
		return 1
	}
	est := 0.0
	for y := 0; y < g.Dim; y++ {
		for x := 0; x < g.Dim; x++ {
			cell := Rect{
				MinLon: g.Extent.MinLon + float64(x)*cellW,
				MinLat: g.Extent.MinLat + float64(y)*cellH,
			}
			cell.MaxLon = cell.MinLon + cellW
			cell.MaxLat = cell.MinLat + cellH
			if !cell.Intersects(box) {
				continue
			}
			ow := math.Min(cell.MaxLon, box.MaxLon) - math.Max(cell.MinLon, box.MinLon)
			oh := math.Min(cell.MaxLat, box.MaxLat) - math.Max(cell.MinLat, box.MinLat)
			if ow < 0 {
				ow = 0
			}
			if oh < 0 {
				oh = 0
			}
			frac := (ow * oh) / (cellW * cellH)
			est += float64(g.Counts[y*g.Dim+x]) * frac
		}
	}
	sel := est / float64(g.Total)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// TableStats bundles the optimizer's statistics for one table.
type TableStats struct {
	Hists map[string]*Histogram
	Grids map[string]*GeoGrid
	// AvgKeywordSel is the average posting-list length divided by row count,
	// capped at DefaultKeywordSel: optimizers keep no per-term statistics
	// for text-match operators and fall back to a fixed default (PostgreSQL
	// uses a constant match selectivity for @@). Frequent (Zipf-head)
	// keywords are therefore underestimated by orders of magnitude — the
	// failure mode behind the paper's Figure 1.
	AvgKeywordSel map[string]float64
}

// DefaultKeywordSel is the optimizer's fixed text-match selectivity guess.
const DefaultKeywordSel = 0.0005

// GeoSelFloor is the lower clamp on spatial-operator selectivity estimates:
// spatial estimators refuse to predict below a fixed floor (PostGIS-style),
// so very small boxes in dense areas are heavily *over*estimated and the
// optimizer shies away from R-tree scans that would actually be fast.
const GeoSelFloor = 0.005

// BuildTableStats computes statistics for all indexed columns of a table.
func BuildTableStats(t *Table) *TableStats {
	st := &TableStats{
		Hists:         make(map[string]*Histogram),
		Grids:         make(map[string]*GeoGrid),
		AvgKeywordSel: make(map[string]float64),
	}
	for _, c := range t.Cols {
		switch c.Type {
		case ColInt64, ColFloat64, ColTime:
			st.Hists[c.Name] = BuildHistogram(c)
		case ColPoint:
			st.Grids[c.Name] = BuildGeoGrid(c)
		case ColText:
			sel := DefaultKeywordSel
			if ix := t.Index(c.Name); ix != nil && ix.Kind == IndexInverted {
				avg := ix.invidx.AvgPostingLen() / math.Max(1, float64(t.Rows))
				if avg < sel {
					sel = avg
				}
			}
			st.AvgKeywordSel[c.Name] = sel
		}
	}
	return st
}

// EstimateSelectivity returns the optimizer's (imperfect) selectivity
// estimate for a predicate.
func (st *TableStats) EstimateSelectivity(p Predicate) float64 {
	switch p.Kind {
	case PredKeyword:
		if s, ok := st.AvgKeywordSel[p.Col]; ok {
			return clampSel(s)
		}
		return DefaultKeywordSel
	case PredRange:
		if h, ok := st.Hists[p.Col]; ok {
			return clampSel(h.EstimateRange(p.Lo, p.Hi))
		}
		return 0.1
	case PredGeo:
		if g, ok := st.Grids[p.Col]; ok {
			s := g.EstimateBox(p.Box)
			if s < GeoSelFloor {
				s = GeoSelFloor
			}
			return clampSel(s)
		}
		return 0.1
	}
	return 0.1
}

func clampSel(s float64) float64 {
	if s < 1e-7 {
		return 1e-7
	}
	if s > 1 {
		return 1
	}
	return s
}

// TrueSelectivity computes the exact fraction of the table's rows matching p
// (used to build per-query ground truth for QTEs and workload bucketing).
func TrueSelectivity(t *Table, p Predicate) float64 {
	return trueSelectivityCached(t, p, nil)
}

// trueSelectivityCached is TrueSelectivity with index scans optionally
// served from a lookup cache. Without a cache, a btree-served range predicate
// is counted via BTree.Visit instead of materializing (and sorting) the full
// row-id slice; with a cache the materializing lookup still runs so the scan
// is shared with the option executions of the same query.
func trueSelectivityCached(t *Table, p Predicate, c *LookupCache) float64 {
	if t.Rows == 0 {
		return 0
	}
	if ix := t.Index(p.Col); ix != nil {
		if c == nil && ix.Kind == IndexBTree && p.Kind == PredRange {
			return float64(ix.btree.CountRange(p.Lo, p.Hi)) / float64(t.Rows)
		}
		if rows, _, err := c.lookup(t, ix, p); err == nil {
			return float64(rows.Len()) / float64(t.Rows)
		}
	}
	b := p.bind(t)
	n := 0
	for r := 0; r < t.Rows; r++ {
		if b.eval(uint32(r)) {
			n++
		}
	}
	return float64(n) / float64(t.Rows)
}
