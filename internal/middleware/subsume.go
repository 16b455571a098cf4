package middleware

import (
	"math"
	"sync"

	"github.com/maliva/maliva/internal/engine"
)

// This file extends result-cache lookup from exact request identity to
// containment ("request subsumption"): a cached heatmap whose region
// contains the requested region, with matching
// keyword/time/kind/budget/data-version and exactly-aligned grid cells, can
// answer the sub-request by slicing its bins, byte-identical to direct
// execution. Non-aligned (or scatter) requests fall through to normal
// execution.
//
// Subsumption is heatmap-only and slice-only by design:
//   - Scatter responses expose raw point slices whose order is a plan
//     artifact; a parent executed under a different physical plan may emit
//     the same points in a different order, so filtering a parent's points
//     cannot be byte-identical to direct execution.
//   - Only equal cell sizes are accepted (no aggregation of finer parent
//     cells into coarser requested cells): per-cell counts are copied, never
//     re-summed, so float summation order can never diverge from the direct
//     path. With equal cells, a parent bin IS the direct path's bin — both
//     count the same points at the same weight.
//
// The one caveat is inherent to float grids: a point lying exactly on the
// sub-region's max edge (or within ~1 ulp of a shared cell boundary) can
// bin differently under the sub-grid's clamp than under the parent's. For
// continuous coordinates these are measure-zero events; the differential
// test in subsume_test.go exercises randomized aligned viewports against
// direct execution to keep this honest.

// famKey names a subsumption family: every request dimension that must
// match exactly between a containing result and the sub-requests it may
// answer — everything in ResultKey except the region/grid geometry. (SQL
// text embeds the region predicate, so key equality is precisely what
// subsumption must NOT require.)
type famKey struct {
	keyword string
	fromMs  int64
	toMs    int64
	kind    VizKind
	budget  float64
	version uint64
}

// alignEps is the lattice-alignment tolerance, measured in cells. Real
// tile traffic produces offsets within ~1e-12 cells of integral (float
// noise of extent/2^z arithmetic); anything farther off than 1e-7 of a
// cell is treated as genuinely non-aligned and falls through to execution.
const alignEps = 1e-7

// axisAlign checks one axis of gridAlign: sub cells must equal parent
// cells in size and sit on the parent's cell lattice. Returns the sub
// window's offset in parent cells.
func axisAlign(pMin, pMax float64, pn int, sMin, sMax float64, sn int) (off int, ok bool) {
	span := pMax - pMin
	if span <= 0 || pn <= 0 || sn <= 0 {
		return 0, false
	}
	cell := span / float64(pn)
	fo := (sMin - pMin) / cell
	off = int(math.Round(fo))
	if math.Abs(fo-float64(off)) > alignEps {
		return 0, false
	}
	fw := (sMax - sMin) / cell
	if n := int(math.Round(fw)); n != sn || math.Abs(fw-float64(n)) > alignEps {
		return 0, false
	}
	if off < 0 || off+sn > pn {
		return 0, false
	}
	return off, true
}

// gridAlign reports whether the sub request's grid (region sr, sn×sm cells)
// lies exactly on the parent grid's cell lattice — same cell size, cell
// boundaries snapped — and returns the sub window's cell offset inside the
// parent grid.
func gridAlign(pr engine.Rect, pw, ph int, sr engine.Rect, sw, sh int) (ox, oy int, ok bool) {
	ox, ok = axisAlign(pr.MinLon, pr.MaxLon, pw, sr.MinLon, sr.MaxLon, sw)
	if !ok {
		return 0, 0, false
	}
	oy, ok = axisAlign(pr.MinLat, pr.MaxLat, ph, sr.MinLat, sr.MaxLat, sh)
	if !ok {
		return 0, 0, false
	}
	return ox, oy, true
}

// sliceBins copies the sub window's cells out of a parent bin map. Sparsity
// is preserved: absent parent cells stay absent, matching what direct
// execution of the sub-request would produce (its bin map only holds cells
// with points).
func sliceBins(parent map[int]float64, pw, ox, oy, sw, sh int) map[int]float64 {
	out := make(map[int]float64)
	for ry := 0; ry < sh; ry++ {
		prow := (oy+ry)*pw + ox
		for rx := 0; rx < sw; rx++ {
			if v, ok := parent[prow+rx]; ok {
				out[ry*sw+rx] = v
			}
		}
	}
	return out
}

// regionEntry is one cached heatmap registered for containment lookup.
type regionEntry struct {
	key    ResultKey
	region engine.Rect
	gw, gh int
}

// defaultRegionIndexCap bounds the containment index. Entries are tiny
// (they alias cached keys, not responses); the cap only has to outlive the
// result cache's useful population.
const defaultRegionIndexCap = 1024

// regionIndex maps a subsumption family to the cached results that might
// contain future sub-requests. It is an index over the result cache, not a
// cache itself: lookups re-validate every candidate against the live cache
// and drop entries whose backing response is gone (evicted or reclaimed).
// An LRU over the indexed keys bounds it; a capacity eviction takes the key
// out of its family through the LRU's callback.
type regionIndex struct {
	mu   sync.Mutex
	fams map[famKey]map[ResultKey]regionEntry
	// keys holds every indexed key with its family. A result key determines
	// its family (its SQL pins the keyword and the time window), so the
	// result key alone names an entry.
	keys *lru[ResultKey, famKey]
}

func newRegionIndex(cap int) *regionIndex {
	if cap <= 0 {
		cap = defaultRegionIndexCap
	}
	ri := &regionIndex{fams: make(map[famKey]map[ResultKey]regionEntry)}
	ri.keys = newLRU(cap, func(key ResultKey, fam famKey) { ri.dropLocked(fam, key) })
	return ri
}

// add registers a freshly-cached result, or marks an indexed one used.
func (ri *regionIndex) add(fam famKey, e regionEntry) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	m := ri.fams[fam]
	if m == nil {
		m = make(map[ResultKey]regionEntry)
		ri.fams[fam] = m
	}
	m[e.key] = e
	ri.keys.put(e.key, fam)
}

// candidates snapshots a family's entries (lock released before the caller
// touches the result cache, which may be slow in a cluster).
func (ri *regionIndex) candidates(fam famKey) []regionEntry {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	m := ri.fams[fam]
	if len(m) == 0 {
		return nil
	}
	out := make([]regionEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	return out
}

// remove drops a stale entry (its cached response is gone).
func (ri *regionIndex) remove(fam famKey, key ResultKey) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ri.keys.remove(key)
	ri.dropLocked(fam, key)
}

// dropBelow removes every family of a data version older than version —
// their cached responses were just reclaimed, and containment candidates are
// only ever looked up at the current version.
func (ri *regionIndex) dropBelow(version uint64) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	for fam := range ri.fams {
		if fam.version < version {
			delete(ri.fams, fam)
		}
	}
	ri.keys.removeFunc(func(_ ResultKey, fam famKey) bool { return fam.version < version })
}

func (ri *regionIndex) dropLocked(fam famKey, key ResultKey) {
	if m := ri.fams[fam]; m != nil {
		delete(m, key)
		if len(m) == 0 {
			delete(ri.fams, fam)
		}
	}
}

// prefetchMarks remembers which cached keys were computed speculatively, so
// the first live request served from one counts as a prefetch hit (count
// once: hits unmark). An LRU bounds it — stale marks age out harmlessly.
type prefetchMarks struct {
	mu   sync.Mutex
	keys *lru[ResultKey, struct{}]
}

const defaultPrefetchMarks = 4096

func newPrefetchMarks(cap int) *prefetchMarks {
	if cap <= 0 {
		cap = defaultPrefetchMarks
	}
	return &prefetchMarks{keys: newLRU[ResultKey, struct{}](cap, nil)}
}

func (pm *prefetchMarks) mark(key ResultKey) {
	if pm == nil {
		return
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.keys.put(key, struct{}{})
}

// unmark removes a mark, reporting whether it was present.
func (pm *prefetchMarks) unmark(key ResultKey) bool {
	if pm == nil {
		return false
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.keys.remove(key)
}

// LocalGetter is an optional ResultCache refinement: Get restricted to this
// process's local layer. The containment lookup probes candidate parents
// through it so validating an index entry never pays a cluster peer round
// trip (subsumption is a local optimization; the caches it indexes are the
// replica's own).
type LocalGetter interface {
	GetLocal(key ResultKey) *Response
}

// localGet probes the result cache without crossing the peer wire.
func (s *Server) localGet(key ResultKey) *Response {
	if lg, ok := s.results.(LocalGetter); ok {
		return lg.GetLocal(key)
	}
	return s.results.Get(key)
}

// notePrefetchHit credits a live request served from a speculatively-
// computed entry (counted once per prefetched key).
func (s *Server) notePrefetchHit(key ResultKey) {
	if s.prefetched.unmark(key) {
		s.metrics.prefetchHits.Add(1)
	}
}

// subsumeFromCache answers a planned heatmap request from a cached,
// strictly-containing, cell-aligned result, or returns nil. On success the
// sliced response is cached under the sub-request's own key (a normal,
// version-stamped entry) so repeats are exact hits.
func (s *Server) subsumeFromCache(p planned, prefetch bool) *Response {
	if s.regions == nil || p.rkey.Kind != VizHeatmap {
		return nil
	}
	for _, e := range s.regions.candidates(p.fam) {
		if e.key == p.rkey {
			continue
		}
		ox, oy, ok := gridAlign(e.region, e.gw, e.gh, p.rkey.Region, p.rkey.GridW, p.rkey.GridH)
		if !ok {
			continue
		}
		parent := s.localGet(e.key)
		if parent == nil {
			s.regions.remove(p.fam, e.key)
			continue
		}
		resp := responseShell(p)
		resp.Bins = sliceBins(parent.Bins, e.gw, ox, oy, p.rkey.GridW, p.rkey.GridH)
		s.putResult(p, resp, prefetch)
		if !prefetch {
			s.metrics.subsumedHits.Add(1)
			s.notePrefetchHit(e.key)
		}
		return resp
	}
	return nil
}

// putResult caches a computed (or sliced) response under its own key and
// registers heatmaps in the containment index; speculative results are
// marked so their first live consumer counts as a prefetch hit.
func (s *Server) putResult(p planned, resp *Response, prefetch bool) {
	s.results.Put(p.rkey, resp)
	if s.regions != nil && p.rkey.Kind == VizHeatmap {
		s.regions.add(p.fam, regionEntry{key: p.rkey, region: p.rkey.Region, gw: p.rkey.GridW, gh: p.rkey.GridH})
	}
	if prefetch {
		s.prefetched.mark(p.rkey)
	}
}
