package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// Request generation. Every sequence is a pure function of its arguments:
// the same (domain, counts, seed) always yields byte-identical bodies, and
// the program under test receives nothing but those bodies.

// domain is the dataset metadata request generation reads — never the rows.
type domain struct {
	extent   engine.Rect
	origin   time.Time
	spanDays int
}

func domainOf(ds *workload.Dataset) domain {
	return domain{extent: ds.Extent, origin: ds.TimeOrigin, spanDays: ds.TimeSpanDays}
}

const (
	// The maliva-load shape space: 60 popular keywords × zoom levels 0–3 ×
	// 7–59-day windows × a uniform viewport position.
	numKeywords = 60
	numZooms    = 4
	minDays     = 7
	daySpread   = 53
	// coldBlock is the stratification unit of the shape generator: every
	// run of coldBlock consecutive shapes covers each (keyword, zoom) cell
	// exactly once, in a seeded order. Keyword frequency and viewport size
	// set most of a request's cost and viability, so equal-sized slices of
	// a sequence (the timed passes) and sequences of different seeds carry
	// the same mix; the seed still moves every window and viewport.
	coldBlock = numKeywords * numZooms
	// scatterEvery makes one shape in ten a scatter plot, as maliva-load
	// does, but on a fixed rotation of cells instead of a coin flip: block b
	// turns the cells c with (c+b) % scatterEvery == 0 into scatters.
	scatterEvery = 10

	budgetMs = 500
)

// vizBody is the /viz wire format, declared here so the encoding (field
// order included) is the benchmark's own and cannot drift with the server.
type vizBody struct {
	Keyword  string  `json:"keyword"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	MinLon   float64 `json:"min_lon"`
	MinLat   float64 `json:"min_lat"`
	MaxLon   float64 `json:"max_lon"`
	MaxLat   float64 `json:"max_lat"`
	Kind     string  `json:"kind"`
	GridW    int     `json:"grid_w"`
	GridH    int     `json:"grid_h"`
	BudgetMs float64 `json:"budget_ms"`
}

func (b vizBody) encode() []byte {
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // plain struct of strings and finite numbers
	}
	return out
}

func keyword(k int) string { return fmt.Sprintf("word%04d", k) }

// window draws a minDays..minDays+daySpread-1 day window inside the
// dataset's temporal domain.
func (d domain) window(rng *rand.Rand) (from, to string) {
	days := minDays + rng.Intn(daySpread)
	start := d.origin.AddDate(0, 0, rng.Intn(d.spanDays-days))
	return start.Format(time.RFC3339), start.AddDate(0, 0, days).Format(time.RFC3339)
}

// coldShapes generates n request bodies, no two alike. Viewport positions
// come from a continuum, but zoom 0 has only one — the whole extent — so a
// zoom-0 shape whose (keyword, window) was already used draws a new window.
func coldShapes(d domain, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	type wholeExtent struct{ keyword, from, to string }
	used := make(map[wholeExtent]bool)
	for block := 0; len(out) < n; block++ {
		for _, cell := range rng.Perm(coldBlock) {
			if len(out) == n {
				break
			}
			k, z := cell/numZooms, cell%numZooms
			b := vizBody{Keyword: keyword(k), Kind: "heatmap", GridW: 32, GridH: 16, BudgetMs: budgetMs}
			if (cell+block)%scatterEvery == 0 {
				b.Kind = "scatter"
			}
			b.From, b.To = d.window(rng)
			if z == 0 {
				for used[wholeExtent{b.Keyword, b.From, b.To}] {
					b.From, b.To = d.window(rng)
				}
				used[wholeExtent{b.Keyword, b.From, b.To}] = true
			}
			// Zoom level z halves the viewport z times.
			w := (d.extent.MaxLon - d.extent.MinLon) / float64(int(1)<<z)
			h := (d.extent.MaxLat - d.extent.MinLat) / float64(int(1)<<z)
			b.MinLon = d.extent.MinLon + rng.Float64()*(d.extent.MaxLon-d.extent.MinLon-w)
			b.MinLat = d.extent.MinLat + rng.Float64()*(d.extent.MaxLat-d.extent.MinLat-h)
			b.MaxLon, b.MaxLat = b.MinLon+w, b.MinLat+h
			out = append(out, b.encode())
		}
	}
	return out
}

const (
	// The dashboard of the Zipf workloads: zipfShapes fixed shapes drawn
	// once from the shape generator. The pool is part of the workload's
	// definition, not of the seed: under Zipf(1.2) the top shape alone takes
	// a quarter of the traffic, so a per-seed pool would make every metric a
	// statement about which dozen shapes happened to land on top. The seed
	// decides the order in which they are asked for.
	zipfShapes   = 200
	zipfS        = 1.2
	zipfPoolSeed = 20230328
	// zipfBlockTarget is the nominal length of one block of the sequence
	// (see zipfBlock): the smallest round size at which the rarest shape
	// still rounds to more than one request.
	zipfBlockTarget = 4000
)

func zipfPool(d domain) [][]byte { return coldShapes(d, zipfShapes, zipfPoolSeed) }

// zipfBlock lists pool indices with shape k (rank 0 the most popular)
// appearing in exact proportion to (1+k)^-s. A sequence made of shuffled
// blocks has the Zipf popularity curve without the sampling noise of
// independent draws, which on a few thousand requests would move the share of
// the top shape — and with it every metric — by several percent per seed.
func zipfBlock() []uint8 {
	var norm float64
	for k := 0; k < zipfShapes; k++ {
		norm += math.Pow(float64(1+k), -zipfS)
	}
	var block []uint8
	for k := 0; k < zipfShapes; k++ {
		copies := int(math.Round(zipfBlockTarget * math.Pow(float64(1+k), -zipfS) / norm))
		for c := 0; c < max(copies, 1); c++ {
			block = append(block, uint8(k))
		}
	}
	return block
}

// zipfSequence returns n pool indices: whole blocks, each shuffled by the
// seed, the last one cut short.
func zipfSequence(n int, seed int64) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	block := zipfBlock()
	out := make([]uint8, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// session is one simulated pan/zoom session: an ordered request list sent
// under one session id.
type session struct {
	id    string
	steps [][]byte
}

const (
	sessionSteps = 40
	// sessionGridW/H is the zoom-0 grid; it halves with the viewport so
	// every request of a session has the same geographic cell size and each
	// zoom-in is grid-aligned inside its parent (the containment-slicing
	// precondition).
	sessionGridW = 128
	sessionGridH = 64
	sessionMaxZ  = 3
)

// genSession random-walks one session over the extent-anchored power-of-two
// tile lattice: 55% keep panning, 15% turn then pan, 15% zoom in, 15% zoom
// out; pans bounce off the extent boundary. The tile arithmetic
// (eMin + k·(span/2^z)) is the server-side predictor's, so a predicted tile
// and the session's next request agree to the bit. kw is the session's
// keyword; window and walk come from the seed.
func genSession(d domain, id string, kw, steps int, seed int64) session {
	rng := rand.New(rand.NewSource(seed))
	from, to := d.window(rng)

	z := 2
	kx, ky := rng.Intn(1<<z), rng.Intn(1<<z)
	dx, dy := 1, 0
	if rng.Intn(2) == 0 {
		dx, dy = 0, 1
	}
	if rng.Intn(2) == 0 {
		dx, dy = -dx, -dy
	}

	s := session{id: id, steps: make([][]byte, 0, steps)}
	emit := func() {
		tw := (d.extent.MaxLon - d.extent.MinLon) / float64(int(1)<<z)
		th := (d.extent.MaxLat - d.extent.MinLat) / float64(int(1)<<z)
		s.steps = append(s.steps, vizBody{
			Keyword: keyword(kw), From: from, To: to, Kind: "heatmap",
			GridW: sessionGridW >> z, GridH: sessionGridH >> z, BudgetMs: budgetMs,
			MinLon: d.extent.MinLon + float64(kx)*tw, MinLat: d.extent.MinLat + float64(ky)*th,
			MaxLon: d.extent.MinLon + float64(kx+1)*tw, MaxLat: d.extent.MinLat + float64(ky+1)*th,
		}.encode())
	}
	inside := func(x, y int) bool { return x >= 0 && x < 1<<z && y >= 0 && y < 1<<z }
	pan := func() {
		if !inside(kx+dx, ky+dy) {
			dx, dy = -dx, -dy
			if !inside(kx+dx, ky+dy) {
				return // 1×1 lattice: nowhere to pan
			}
		}
		kx, ky = kx+dx, ky+dy
	}
	emit()
	for len(s.steps) < steps {
		switch r := rng.Float64(); {
		case r < 0.55:
			pan()
		case r < 0.70:
			dir := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}[rng.Intn(4)]
			dx, dy = dir[0], dir[1]
			pan()
		case r < 0.85 && z < sessionMaxZ:
			z++
			kx, ky = 2*kx+rng.Intn(2), 2*ky+rng.Intn(2)
		case r >= 0.85 && z > 0:
			z--
			kx, ky = kx/2, ky/2
		default:
			pan()
		}
		emit()
	}
	return s
}

// sessionPoolSeed fixes the session pool for the same reason the Zipf pool
// is fixed: a run replays a dozen sessions, each one (keyword, window) draw
// held for forty steps, so per-seed sessions would turn viable_frac into a
// report on the draw. The seed decides which client replays which session
// and in what order.
const sessionPoolSeed = 20230329

// sessionPool generates the first n sessions of the pool. Session i takes
// keyword (offset + 7i) mod 60: keyword frequency decides most of a
// session's cost, and a stride coprime to 60 spreads any run of consecutive
// sessions evenly over the frequency ranks.
func sessionPool(d domain, n, steps int) []session {
	const stride = 7
	offset := rand.New(rand.NewSource(sessionPoolSeed)).Intn(numKeywords)
	out := make([]session, n)
	for i := range out {
		out[i] = genSession(d, fmt.Sprintf("session-%03d", i), (offset+i*stride)%numKeywords, steps, sessionPoolSeed+int64(i))
	}
	return out
}

// dealSessions shuffles sessions by the seed and deals them round-robin to
// the clients.
func dealSessions(sessions []session, clients int, seed int64) [][]session {
	order := rand.New(rand.NewSource(seed)).Perm(len(sessions))
	hands := make([][]session, clients)
	for i, j := range order {
		hands[i%clients] = append(hands[i%clients], sessions[j])
	}
	return hands
}
