package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/workload"
)

// ingestStreamSeed fixes the rows read_under_ingest writes: what arrives is
// part of the workload's definition (it moves every selectivity a little);
// the seed orders the reads beside it.
const ingestStreamSeed = 20230330

// numPasses is K: the timed section is K equal slices of the sequence with a
// forced GC between them, and each wall-clock metric is the median of the K
// per-pass values — one slow slice (a neighbour on the shared machine, an
// unlucky GC) moves nothing.
const numPasses = 5

// referenceSeconds is the -seconds value the reference counts belong to
// (BENCHMARK.json's run_seconds).
const referenceSeconds = 20

// traceRequests is how many requests past the timed ones the traced run
// replays through the shadow lifecycle.
const traceRequests = 400

// verifyRequests is the size of the correctness gate's sample.
const verifyRequests = 64

// counts sizes one run. -seconds scales the timed counts linearly; at the
// reference value the timed section takes about that long on the 2-core box
// the counts were tuned on. It never becomes a wall-clock cut-off.
//
// The sections are this long for one reason: on a shared machine a
// neighbour's burst lasts up to ten seconds, and a pass-median only shrugs
// one off if it covers fewer than three of the five passes.
type counts struct {
	coldWarmup  int // W: distinct requests served before the clock starts
	coldPass    int // timed requests per pass, cold_unique
	warmPass    int // timed requests per pass, warm_zipf
	sessions    int // sessions per client, session_panzoom
	steps       int // steps per session
	think       time.Duration
	posts       int // /ingest posts, read_under_ingest
	postRows    int
	postEvery   time.Duration
	traceReplay int
	verify      int
}

func countsFor(seconds int, smoke bool) counts {
	scale := float64(seconds) / referenceSeconds
	n := func(ref float64) int { return int(math.Max(1, math.Round(ref*scale))) }
	c := counts{
		coldWarmup:  5400,
		coldPass:    coldBlock * n(2),
		warmPass:    len(zipfBlock()) * n(25),
		sessions:    n(8),
		steps:       sessionSteps,
		think:       60 * time.Millisecond,
		posts:       numPasses * n(11),
		postRows:    64,
		postEvery:   400 * time.Millisecond,
		traceReplay: traceRequests,
		verify:      verifyRequests,
	}
	if smoke {
		c.coldWarmup, c.coldPass, c.warmPass = c.coldWarmup/50, 10, c.warmPass/50
		c.sessions, c.steps = 1, 8
		c.posts = numPasses
		c.traceReplay, c.verify = 16, 8
	}
	return c
}

// run is the state of one benchmark run.
type run struct {
	name    string
	seed    int64
	n       counts
	fx      *fixture
	gw      *gateway
	clients []*client
	// spans is non-nil on a traced run.
	spans  *tracer
	wal    *engine.WAL
	walDir string

	// Generated inputs.
	coldWarm, coldTimed, coldReplay [][]byte  // cold_unique: see coldSequences
	pool                            [][]byte  // Zipf workloads: the fixed shape pool
	seq                             []uint8   // Zipf workloads: pool indices, timed then trace
	sessions                        []session // session_panzoom: timed sessions, one warm-up per client, trace sessions
	posts                           [][]byte  // read_under_ingest: async /ingest bodies, then one sync body

	// Results of the timed section. ops holds the timed /viz requests; side
	// the ingest posts and the correctness gate's comparisons.
	ops     tally
	side    tally
	passes  []passStats // one per pass; session_panzoom pools all steps into one
	ackMs   []float64
	warmupS float64
	setupS  float64
	heapMiB float64
}

// workloadDef is one named workload: how it brings the server to its regime,
// what it times, what must hold afterwards, and which requests the
// correctness gate and the traced replay use.
type workloadDef struct {
	name string
	why  string
	// wal attaches a write-ahead log to the dataset before the server starts.
	wal bool
	// prepare generates the inputs and warms the regime; its cost is
	// middleware.warmup_s and part of setup_s.
	prepare func(r *run) error
	timed   func(r *run) error
	// regime checks the cache regime the workload is defined by against the
	// server's own counters over the timed section.
	regime func(r *run, d metricsDelta) error
	// verify and replay return the bodies of the correctness gate and of the
	// traced shadow replay.
	verify func(r *run) [][]byte
	replay func(r *run) [][]byte
}

var workloads = []workloadDef{
	{
		name: "cold_unique",
		why:  "never-seen shapes with every memo structure saturated: core.BuildContext and engine do all the work, caches hit nothing",
		prepare: func(r *run) error {
			r.coldTimed, r.coldReplay, r.coldWarm = coldSequences(r.fx.dom, r.n, r.seed)
			t, _, _ := runPass(r.clients, len(r.coldWarm), func(i int) []byte { return r.coldWarm[i] }, nil)
			return warmupErr(t)
		},
		timed: func(r *run) error {
			return r.timedPasses(r.n.coldPass, func(i int) []byte { return r.coldTimed[i] })
		},
		regime: func(r *run, d metricsDelta) error {
			if res, plan := d["middleware.result_hit_frac"], d["middleware.plan_hit_frac"]; res != 0 || plan != 0 {
				return fmt.Errorf("cold_unique hit a cache: result_hit_frac=%g plan_hit_frac=%g", res, plan)
			}
			return nil
		},
		verify: func(r *run) [][]byte { return everyNth(r.coldTimed, r.n.verify) },
		replay: func(r *run) [][]byte { return r.coldReplay },
	},
	{
		name: "warm_zipf",
		why:  "Zipf(1.2) over 200 pre-served shapes: plan and result cache hits only, so HTTP, admission, probes and encoding are the cost and engine/core do nothing",
		prepare: func(r *run) error {
			r.pool = zipfPool(r.fx.dom)
			r.seq = zipfSequence(numPasses*r.n.warmPass+r.n.traceReplay, r.seed)
			return r.servePool()
		},
		timed: func(r *run) error {
			return r.timedPasses(r.n.warmPass, func(i int) []byte { return r.pool[r.seq[i]] })
		},
		regime: func(r *run, d metricsDelta) error {
			if res, plan := d["middleware.result_hit_frac"], d["middleware.plan_hit_frac"]; res != 1 || plan != 1 {
				return fmt.Errorf("warm_zipf missed a cache: result_hit_frac=%g plan_hit_frac=%g", res, plan)
			}
			return nil
		},
		verify: func(r *run) [][]byte { return everyNth(r.pool, r.n.verify) },
		replay: func(r *run) [][]byte { return r.seqBodies(r.seq[len(r.seq)-r.n.traceReplay:]) },
	},
	{
		name: "session_panzoom",
		why:  "seeded pan/zoom sessions with think time and a session id: the only traffic on which prefetch, park/yield and containment subsumption do work, and the latency a map user feels",
		prepare: func(r *run) error {
			extra := (r.n.traceReplay + r.n.steps - 1) / r.n.steps
			r.sessions = sessionPool(r.fx.dom, r.timedSessions()+len(r.clients)+extra, r.n.steps)
			// One throwaway session per client first: connection set-up and
			// the first cold builds are not what a session in progress sees.
			warm := r.sessions[r.timedSessions() : r.timedSessions()+len(r.clients)]
			return warmupErr(r.replaySessions(dealSessions(warm, len(r.clients), r.seed), 0))
		},
		timed: func(r *run) error {
			hands := dealSessions(r.sessions[:r.timedSessions()], len(r.clients), r.seed)
			cpu0, t0 := cpuTime(), time.Now()
			t := r.replaySessions(hands, r.n.think)
			elapsed, cpu := time.Since(t0), cpuTime()-cpu0
			r.ops.merge(t)
			r.passes = []passStats{summarize(t.samples, elapsed, cpu)}
			return nil
		},
		regime: func(r *run, d metricsDelta) error {
			if pre, sub := d["middleware.prefetch_hit_frac"], d["middleware.subsumed_frac"]; pre <= 0 || sub <= 0 {
				return fmt.Errorf("session_panzoom never used speculation: prefetch_hit_frac=%g subsumed_frac=%g", pre, sub)
			}
			return nil
		},
		verify: func(r *run) [][]byte { return everyNth(allSteps(r.sessions), r.n.verify) },
		replay: func(r *run) [][]byte {
			return allSteps(r.sessions[r.timedSessions()+len(r.clients):])[:r.n.traceReplay]
		},
	},
	{
		name: "read_under_ingest",
		why:  "Zipf reads beside a fixed-rate WAL-logged writer: every flush retires the caches, so reads alternate between hits and cold builds and contend with the flush's write lock",
		wal:  true,
		prepare: func(r *run) error {
			r.pool = zipfPool(r.fx.dom)
			// The reader stops when the writer does; the sequence only has
			// to outlast it (a hit-only reader would need ~10k per second).
			r.seq = zipfSequence(int(float64(r.n.posts)*r.n.postEvery.Seconds()*12000)+r.n.traceReplay, r.seed)
			st, err := workload.NewIngestStream(r.fx.ds, ingestStreamSeed)
			if err != nil {
				return err
			}
			// One extra, synchronous post ends the run: it makes every row
			// visible before the correctness gate reads.
			r.posts = make([][]byte, r.n.posts+1)
			for i := range r.posts {
				if r.posts[i], err = json.Marshal(map[string]any{"rows": st.Next(r.n.postRows), "sync": i == r.n.posts}); err != nil {
					return err
				}
			}
			return r.servePool()
		},
		timed: func(r *run) error { return r.readUnderIngest() },
		regime: func(r *run, d metricsDelta) error {
			// One flush per post is the regime. A few posts may share a flush
			// with their neighbour (a timer fired late on a busy machine)
			// before the run stops being the workload it claims to be.
			if got, want := d["middleware.ingest_flushes"], float64(r.n.posts*10/11); got < want {
				return fmt.Errorf("read_under_ingest flushed %g times for %d posts (want ≥ %g)", got, r.n.posts, want)
			}
			return nil
		},
		verify: func(r *run) [][]byte { return everyNth(r.pool, r.n.verify) },
		replay: func(r *run) [][]byte { return r.seqBodies(r.seq[len(r.seq)-r.n.traceReplay:]) },
	},
}

// coldPoolSeed fixes cold_unique's shapes, as the Zipf and session pools are
// fixed: the timed passes serve the same 2 400 shapes on every seed, so the
// virtual-clock metrics repeat exactly and a difference between two runs is
// the program's or the machine's, never the draw's. The seed orders them.
const coldPoolSeed = 20230331

// coldSequences cuts cold_unique's pool into the timed requests, the traced
// replay's, and the warm-up's — in that order, so changing the warm-up count
// W leaves the timed shapes alone — and orders each by the seed. The timed
// requests are shuffled within their coldBlock-sized blocks only: every pass
// keeps its composition. The warm-up order is free, and matters: it decides
// which predicates the server memoizes before its lookup cache fills.
func coldSequences(d domain, n counts, seed int64) (timed, replay, warm [][]byte) {
	nTimed := numPasses * n.coldPass
	pool := coldShapes(d, nTimed+n.traceReplay+n.coldWarmup, coldPoolSeed)
	timed, replay, warm = pool[:nTimed], pool[nTimed:nTimed+n.traceReplay], pool[nTimed+n.traceReplay:]
	rng := rand.New(rand.NewSource(seed))
	shuffle := func(s [][]byte) { rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] }) }
	for at := 0; at < len(timed); at += coldBlock {
		shuffle(timed[at:min(at+coldBlock, len(timed))])
	}
	shuffle(warm)
	return timed, replay, warm
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func warmupErr(t *tally) error {
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %w", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// everyNth picks n bodies evenly spaced over all.
func everyNth(all [][]byte, n int) [][]byte {
	if n > len(all) {
		n = len(all)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

func allSteps(sessions []session) [][]byte {
	var all [][]byte
	for _, s := range sessions {
		all = append(all, s.steps...)
	}
	return all
}

func (r *run) seqBodies(seq []uint8) [][]byte {
	out := make([][]byte, len(seq))
	for i, s := range seq {
		out[i] = r.pool[s]
	}
	return out
}

// servePool serves every pool shape once, which fills the plan and result
// caches with exactly the entries the Zipf sequence will ask for.
func (r *run) servePool() error {
	t, _, _ := runPass(r.clients, len(r.pool), func(i int) []byte { return r.pool[i] }, nil)
	return warmupErr(t)
}

// timedPasses runs the K-pass timed section over body(0..K·perPass). On a
// traced run odd passes record a client-side span per request and even
// passes do not; the gap between the two groups is the tracing overhead.
func (r *run) timedPasses(perPass int, body func(i int) []byte) error {
	for p := 0; p < numPasses; p++ {
		runtime.GC()
		base := p * perPass
		t, elapsed, cpu := runPass(r.clients, perPass, func(i int) []byte { return body(base + i) }, r.passSpans(p))
		r.ops.merge(t)
		r.passes = append(r.passes, summarize(t.samples, elapsed, cpu))
	}
	return nil
}

// passSpans is the tracer for pass p: on a traced run the odd passes record
// spans and the even ones do not.
func (r *run) passSpans(p int) *tracer {
	if p%2 == 0 {
		return nil
	}
	return r.spans
}

// traceOverhead is 1 − (median qps of the span-recording passes) ÷ (median
// qps of the others): what recording costs, within the passes' own noise.
func (r *run) traceOverhead() float64 {
	var traced, plain []float64
	for p, ps := range r.passes {
		if p%2 == 1 {
			traced = append(traced, ps.qps)
		} else {
			plain = append(plain, ps.qps)
		}
	}
	if r.spans == nil || len(traced) == 0 {
		return 0
	}
	return 1 - median(traced)/median(plain)
}

// timedSessions is the number of sessions in the timed section.
func (r *run) timedSessions() int { return len(r.clients) * r.n.sessions }

// replaySessions has client i replay hands[i] back to back, pausing before
// each step but the first of a session. The pause is think ± a third, drawn
// per step from the seed: with a fixed pause the two clients fall into
// lockstep at whatever phase their first requests left them, and a run
// measures that phase — together or alternating — instead of the mix.
func (r *run) replaySessions(hands [][]session, think time.Duration) *tally {
	parts := make([]*tally, len(r.clients))
	var wg sync.WaitGroup
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			t := &tally{}
			spans := r.spans
			if think == 0 {
				spans = nil // the warm-up replay is not part of the trace
			}
			rng := rand.New(rand.NewSource(r.seed<<8 | int64(ci)))
			for _, s := range hands[ci] {
				for i, body := range s.steps {
					if i > 0 {
						time.Sleep(think*2/3 + time.Duration(rng.Int63n(int64(think*2/3)+1)))
					}
					t.attempted++
					id := spans.begin("http.roundtrip", 0, ci<<16|t.attempted)
					smp, err := c.viz(body, s.id)
					spans.end(id)
					if err != nil {
						t.fail(fmt.Errorf("session %s step %d: %w", s.id, i, err))
						continue
					}
					t.samples = append(t.samples, smp)
				}
			}
			parts[ci] = t
		}(ci, c)
	}
	wg.Wait()
	total := &tally{}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// readUnderIngest times one closed-loop reader while a writer posts batches
// on a fixed schedule: post i is due at t0 + i·postEvery. The writer is the
// count-boxed side — the write load is identical on every run and every
// commit — and the reader reads its sequence until the writer's schedule
// ends, so read throughput under that load is what varies. A pass is the
// schedule of one fifth of the posts. The synchronous post that ends the run
// takes the slot after the last async one, so that one's flush and the cold
// reads behind it still belong to the last pass.
func (r *run) readUnderIngest() error {
	reader, writer := r.clients[0], newClient(r.gw.url)
	defer writer.close()
	t0 := time.Now()
	due := func(post int) time.Time { return t0.Add(time.Duration(post) * r.n.postEvery) }

	var wops tally
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, body := range r.posts {
			time.Sleep(time.Until(due(i)))
			wops.attempted++
			a0 := time.Now()
			status, resp, err := writer.post("/ingest?dataset="+datasetName, body, "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, resp)
			}
			switch {
			case err != nil:
				wops.fail(fmt.Errorf("ingest post %d: %w", i, err))
			case i < r.n.posts:
				r.ackMs = append(r.ackMs, float64(time.Since(a0))/float64(time.Millisecond))
			}
		}
	}()

	next := 0
	for p := 0; p < numPasses; p++ {
		runtime.GC()
		t := &tally{}
		until := due((p + 1) * r.n.posts / numPasses)
		spans := r.passSpans(p)
		cpu0, p0 := cpuTime(), time.Now()
		for time.Now().Before(until) && next < len(r.seq)-r.n.traceReplay {
			t.attempted++
			id := spans.begin("http.roundtrip", 0, next)
			s, err := reader.viz(r.pool[r.seq[next]], "")
			spans.end(id)
			next++
			if err != nil {
				t.fail(fmt.Errorf("read %d: %w", next, err))
				continue
			}
			t.samples = append(t.samples, s)
		}
		r.passes = append(r.passes, summarize(t.samples, time.Since(p0), cpuTime()-cpu0))
		r.ops.merge(t)
	}
	wg.Wait()
	r.side.merge(&wops)
	return nil
}

// attachWAL puts a write-ahead log in a temporary directory under the
// dataset, which must not have ingested a row yet, with the fsync policy the
// benchmark states: interval.
func (r *run) attachWAL(outDir string) error {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return err
	}
	r.walDir = dir
	r.wal, _, err = r.fx.ds.DB.AttachWAL(r.fx.ds.Main, filepath.Join(dir, datasetName), engine.WALConfig{Policy: engine.FsyncInterval})
	return err
}
