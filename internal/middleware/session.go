package middleware

import (
	"container/list"
	"math"
	"net/http"
	"sync"

	"github.com/maliva/maliva/internal/engine"
)

// Session-aware serving: requests may carry an opaque session id (the
// X-Maliva-Session header or ?session= query parameter). The gateway keeps
// a small per-session viewport history and, after serving each request,
// predicts where the session pans next (linear momentum), what it zooms out
// to (the lattice parent tile), and which neighbors it might drift into.
// Predictions are dispatched as speculative requests that run only on idle
// admission capacity (Server.Prefetch), so a hit on the next step is served
// warm and a miss cost nothing a live request would have wanted.

// SessionHeader carries the client's opaque session id.
const SessionHeader = "X-Maliva-Session"

// SessionID extracts a request's session id (header first, query second);
// empty means the request is anonymous and never tracked.
func SessionID(r *http.Request) string {
	if id := r.Header.Get(SessionHeader); id != "" {
		return id
	}
	return r.URL.Query().Get("session")
}

// SessionConfig tunes session tracking and speculative prefetch. A gateway
// tracks sessions whenever its result cache is on — with nothing to warm,
// prediction would be wasted work.
type SessionConfig struct {
	// MaxSessions bounds tracked sessions (LRU-evicted). Default 1024.
	MaxSessions int
	// MaxPrefetch caps predictions issued per observed request, taken in
	// priority order. Default 2 (momentum, then parent): every admitted
	// prediction with a cold plan pays a context build plus an execution,
	// so on small machines each extra slot buys little hit rate for a lot
	// of speculative CPU — the compass-neighbor predictions (slot 3+) rarely
	// earn their work. Raise it on machines with idle cores.
	MaxPrefetch int
	// MaxParentGrid skips the zoom-out (parent-tile) prediction when the
	// doubled grid would exceed this many cells on either axis. Default 256.
	MaxParentGrid int
}

// normalized resolves the config defaults.
func (c SessionConfig) normalized() SessionConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxPrefetch <= 0 {
		c.MaxPrefetch = 2
	}
	if c.MaxParentGrid <= 0 {
		c.MaxParentGrid = 256
	}
	return c
}

// sessionState is one tracked session: its latest viewport and the one
// before it (enough for a linear-momentum predictor).
type sessionState struct {
	id      string
	last    Request
	prev    Request
	hasPrev bool
}

// SessionTracker is a bounded LRU of per-session viewport history. It is
// shared by every request goroutine; Observe is a single short critical
// section.
type SessionTracker struct {
	cfg   SessionConfig
	mu    sync.Mutex
	elems map[string]*list.Element // of *sessionState
	lru   *list.List
}

// NewSessionTracker builds a tracker (cfg is normalized internally).
func NewSessionTracker(cfg SessionConfig) *SessionTracker {
	return &SessionTracker{
		cfg:   cfg.normalized(),
		elems: make(map[string]*list.Element),
		lru:   list.New(),
	}
}

// Len reports the number of tracked sessions (tests).
func (t *SessionTracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.elems)
}

// Observe records req as the session's current viewport and returns the
// prefetch candidates its history predicts, in priority order (momentum
// first). extent is the dataset extent — the tile-lattice anchor for
// snapping and the bound for neighbor pruning.
func (t *SessionTracker) Observe(id string, req Request, extent engine.Rect) []Request {
	if id == "" {
		return nil
	}
	t.mu.Lock()
	var st *sessionState
	if el, ok := t.elems[id]; ok {
		st = el.Value.(*sessionState)
		t.lru.MoveToFront(el)
	} else {
		st = &sessionState{id: id}
		t.elems[id] = t.lru.PushFront(st)
		for t.lru.Len() > t.cfg.MaxSessions {
			old := t.lru.Back()
			t.lru.Remove(old)
			delete(t.elems, old.Value.(*sessionState).id)
		}
	}
	// A repeated identical viewport (refresh, retry) is not a pan: keep the
	// existing prev so momentum survives it.
	if !sameRegion(st.last.Region, req.Region) || st.last.GridW != req.GridW || st.last.GridH != req.GridH {
		st.prev, st.hasPrev = st.last, st.last.Region.Area() > 0
	}
	st.last = req
	prev, hasPrev := st.prev, st.hasPrev
	t.mu.Unlock()

	return predictNext(prev, hasPrev, req, extent, t.cfg.MaxPrefetch, t.cfg.MaxParentGrid)
}

// regionEps is the relative tolerance for treating two viewport regions as
// the same (float noise from lattice arithmetic is ~1e-12 of a tile).
const regionEps = 1e-9

func approxEq(a, b, scale float64) bool {
	tol := regionEps * math.Max(1, math.Abs(scale))
	return math.Abs(a-b) <= tol
}

func sameRegion(a, b engine.Rect) bool {
	sw := math.Max(a.MaxLon-a.MinLon, a.MaxLat-a.MinLat)
	return approxEq(a.MinLon, b.MinLon, sw) && approxEq(a.MinLat, b.MinLat, sw) &&
		approxEq(a.MaxLon, b.MaxLon, sw) && approxEq(a.MaxLat, b.MaxLat, sw)
}

// snapAxis snaps one axis of a predicted region onto the extent-anchored
// power-of-two tile lattice, reproducing the exact float arithmetic
// (eMin + k·(extentSpan/2^z)) a slippy-tile client computes. Regions whose
// span is not ~a power-of-two fraction of the extent pass through
// unchanged — prediction still works, exact-key hits just depend on the
// client's own arithmetic.
func snapAxis(min, max, eMin, eMax float64) (float64, float64) {
	span, eSpan := max-min, eMax-eMin
	if span <= 0 || eSpan <= 0 {
		return min, max
	}
	zf := math.Log2(eSpan / span)
	z := math.Round(zf)
	if math.Abs(zf-z) > 1e-6 || z < 0 || z > 24 {
		return min, max
	}
	tile := eSpan / float64(int(1)<<int(z))
	k := math.Round((min - eMin) / tile)
	return eMin + k*tile, eMin + (k+1)*tile
}

// snapRegion snaps both axes onto the tile lattice.
func snapRegion(r engine.Rect, extent engine.Rect) engine.Rect {
	r.MinLon, r.MaxLon = snapAxis(r.MinLon, r.MaxLon, extent.MinLon, extent.MaxLon)
	r.MinLat, r.MaxLat = snapAxis(r.MinLat, r.MaxLat, extent.MinLat, extent.MaxLat)
	return r
}

// predictNext derives the prefetch candidates for a session whose current
// viewport is cur (and previous viewport prev, when hasPrev):
//
//  1. momentum — the viewport shifted by the last pan delta (same zoom
//     only), snapped to the tile lattice;
//  2. parent — the containing lattice tile at half the zoom with a doubled
//     grid, so its cells align exactly with cur's and a later zoom-out (or
//     any sub-tile request) is answered by subsumption slicing;
//  3. neighbors — one viewport step in each compass direction.
//
// Candidates are deduped against each other and against cur, then capped
// at maxN.
func predictNext(prev Request, hasPrev bool, cur Request, extent engine.Rect, maxN, maxGrid int) []Request {
	w := cur.Region.MaxLon - cur.Region.MinLon
	h := cur.Region.MaxLat - cur.Region.MinLat
	if w <= 0 || h <= 0 || maxN <= 0 {
		return nil
	}

	var out []Request
	seen := []engine.Rect{cur.Region}
	add := func(r engine.Rect, grid bool, gw, gh int) {
		if len(out) >= maxN || !r.Intersects(extent) {
			return
		}
		for _, s := range seen {
			if sameRegion(s, r) {
				return
			}
		}
		seen = append(seen, r)
		c := cur
		c.Region = r
		if grid {
			c.GridW, c.GridH = gw, gh
		}
		out = append(out, c)
	}

	// 1. Linear momentum: same zoom (equal viewport size and grid), nonzero
	// pan delta → the next viewport continues the pan.
	if hasPrev && prev.GridW == cur.GridW && prev.GridH == cur.GridH {
		pw := prev.Region.MaxLon - prev.Region.MinLon
		ph := prev.Region.MaxLat - prev.Region.MinLat
		if approxEq(pw, w, w) && approxEq(ph, h, h) && !sameRegion(prev.Region, cur.Region) {
			dLon := cur.Region.MinLon - prev.Region.MinLon
			dLat := cur.Region.MinLat - prev.Region.MinLat
			next := engine.Rect{
				MinLon: cur.Region.MinLon + dLon, MinLat: cur.Region.MinLat + dLat,
				MaxLon: cur.Region.MaxLon + dLon, MaxLat: cur.Region.MaxLat + dLat,
			}
			add(snapRegion(next, extent), false, 0, 0)
		}
	}

	// 2. Lattice parent: the 2×-sized tile containing cur, grid doubled so
	// cells stay the same geographic size (exact subsumption alignment).
	gw, gh := cur.GridW, cur.GridH
	if gw <= 0 {
		gw = 64
	}
	if gh <= 0 {
		gh = 64
	}
	if 2*gw <= maxGrid && 2*gh <= maxGrid {
		pk := math.Floor((cur.Region.MinLon-extent.MinLon)/(2*w) + alignEps)
		qk := math.Floor((cur.Region.MinLat-extent.MinLat)/(2*h) + alignEps)
		parent := engine.Rect{
			MinLon: extent.MinLon + pk*(2*w), MinLat: extent.MinLat + qk*(2*h),
		}
		parent.MaxLon = parent.MinLon + 2*w
		parent.MaxLat = parent.MinLat + 2*h
		add(snapRegion(parent, extent), true, 2*gw, 2*gh)
	}

	// 3. Neighbors: one viewport step per direction.
	for _, d := range [][2]float64{{w, 0}, {-w, 0}, {0, h}, {0, -h}} {
		n := engine.Rect{
			MinLon: cur.Region.MinLon + d[0], MinLat: cur.Region.MinLat + d[1],
			MaxLon: cur.Region.MaxLon + d[0], MaxLat: cur.Region.MaxLat + d[1],
		}
		add(snapRegion(n, extent), false, 0, 0)
	}
	return out
}
