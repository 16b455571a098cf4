package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/maliva/maliva/internal/cluster"
	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/viz"
	"github.com/maliva/maliva/internal/workload"
)

// The traced run. Spans are recorded from this package, around the calls
// into each layer's exported functions — the program under test carries no
// instrumentation of its own yet — kept in memory and written out at exit.
// Per-layer metrics are derived from them; end-to-end metrics never are.

// span is one timed call. Spans of one request share Req; Parent is the ID
// of the span that caused this one (0: a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its ID. A nil tracer records nothing, so
// call sites shared with the untraced run need no branch.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	// The clock is read last, under the lock, so waiting for the lock is not
	// charged to the span.
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = end
	t.mu.Unlock()
}

// in times fn as a child span.
func (t *tracer) in(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// medianOf is the median duration, in units of unit, of the spans called
// name; 0 when there are none.
func (t *tracer) medianOf(name string, unit time.Duration) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.EndNs-s.StartNs)/float64(unit))
		}
	}
	return median(d)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}

// replayBase keeps replay span request ids apart from the timed section's.
const replayBase = 1 << 24

// traceLayers replays bodies through a shadow of the /viz lifecycle built
// only from exported calls, and beside it through Server.Handle and an HTTP
// round trip on the server under test; then times the write path and the
// cluster tier's routing on their own. It writes the trace file and returns
// the per-layer metrics derived from the spans.
func (r *run) traceLayers(bodies [][]byte, outDir string) (map[string]float64, error) {
	t, ds, srv := r.spans, r.fx.ds, r.gw.srv
	rw, err := r.fx.rewriter()
	if err != nil {
		return nil, err
	}
	table := ds.DB.Table(ds.Main)

	// The shadow's predicate-lookup cache has the server's capacity and is
	// pre-filled by the same warm-up traffic in the same order (cold_unique is
	// the one workload that has any), so it sits in the same frozen regime as
	// the server's own.
	lookups := engine.NewLookupCacheWithCap(8192)
	for _, body := range r.coldWarm {
		req, err := middleware.ParseRequest(body)
		if err != nil {
			return nil, err
		}
		q, err := srv.BuildQuery(req)
		if err != nil {
			return nil, err
		}
		ds.DB.TrueSelectivitiesCached(q, lookups)
	}
	hits0, misses0 := lookups.Stats()

	var (
		options, explored, touched, output float64
		fallback, mdpViable, oracleViable  int
	)
	reqs := make([]middleware.Request, len(bodies))
	for i, body := range bodies {
		id := replayBase + i
		var stepErr error
		root := t.begin("shadow.request", 0, id)
		func() {
			// The serving path holds the data read lock across plan and
			// execution; so does its shadow.
			ds.DB.RLockData()
			defer ds.DB.RUnlockData()
			var req middleware.Request
			t.in("middleware.parse", root, id, func() { req, stepErr = middleware.ParseRequest(body) })
			if stepErr != nil {
				return
			}
			var q *engine.Query
			t.in("middleware.build_query", root, id, func() { q, stepErr = srv.BuildQuery(req) })
			if stepErr != nil {
				return
			}
			t.in("engine.choose_plan", root, id, func() { ds.DB.ChoosePlan(q) })
			for _, p := range q.Preds {
				ix := table.Index(p.Col)
				if ix == nil {
					continue
				}
				t.in("engine.index_probe", root, id, func() { _, _, stepErr = ix.Lookup(p) })
				if stepErr != nil {
					return
				}
			}
			var ctx *core.QueryContext
			ccfg := core.DefaultContextConfig(core.HintOnlySpec())
			ccfg.Lookups = lookups
			t.in("core.build_context", root, id, func() { ctx, stepErr = core.BuildContext(ds.DB, q, ccfg) })
			if stepErr != nil {
				return
			}
			var out core.Outcome
			t.in("core.rewrite", root, id, func() { out = rw.Rewrite(ctx, budgetMs) })
			options += float64(ctx.N())
			explored += float64(out.Explored)
			if rw.Agent.NumOpts != ctx.N() {
				fallback++
			} else {
				env := core.NewEnv(core.EnvConfig{Budget: budgetMs, QTE: rw.QTE, Beta: 1}, ctx)
				state, seen := env.State(), env.Explored()
				t.in("core.agent_greedy", root, id, func() { rw.Agent.Greedy(state, seen) })
			}
			if out.Viable {
				mdpViable++
			}
			if (core.OracleRewriter{}).Rewrite(ctx, budgetMs).Viable {
				oracleViable++
			}

			rq, hint := q, engine.Hint{}
			if out.Option >= 0 {
				rq, hint = core.BuildRQ(q, ctx.Options[out.Option], ctx.EstRows, ctx.Scale)
			}
			var res *engine.Result
			var stats engine.ExecStats
			t.in("engine.exec_chosen", root, id, func() { res, stats, stepErr = ds.DB.RunCached(rq, hint, lookups) })
			if stepErr != nil {
				return
			}
			touched += float64(stats.IndexEntries + stats.RowsScanned + stats.RowsFetched)
			output += float64(stats.RowsOutput)
			t.in("engine.exec_seqscan", root, id, func() { _, _, stepErr = ds.DB.RunCached(rq, engine.ForcedHint(nil, hint.Join), lookups) })
			if stepErr != nil {
				return
			}

			resp := &middleware.Response{Kind: req.Kind, GridW: req.GridW, GridH: req.GridH, Trace: middleware.Trace{
				SQL: q.SQL(engine.Hint{}), RewrittenSQL: rq.SQL(hint), BudgetMs: budgetMs,
				PlanMs: out.PlanMs, ExecMs: out.ExecMs, TotalMs: out.TotalMs, Viable: out.Viable, Quality: out.Quality, NumExplored: out.Explored,
			}}
			if req.Kind == middleware.VizScatter {
				resp.Points = res.Points
			} else {
				grid := viz.NewGrid(req.Region, req.GridW, req.GridH)
				t.in("viz.bin", root, id, func() { resp.Bins = grid.Counts(res.Points, res.Weight) })
			}
			t.in("middleware.encode", root, id, func() { _, stepErr = json.Marshal(resp) })
		}()
		t.end(root)
		if stepErr != nil {
			return nil, fmt.Errorf("shadow replay of request %d: %w", i, stepErr)
		}

		// The whole path on the server under test, in process: a miss or a
		// hit as the workload has it, told apart by the server's own counter.
		req, err := middleware.ParseRequest(body)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
		missesBefore := srv.Metrics().Snapshot().ResultMisses
		first := t.begin("middleware.handle_hit", 0, id)
		_, err = srv.Handle(req)
		t.end(first)
		if err != nil {
			return nil, fmt.Errorf("Handle of replay request %d: %w", i, err)
		}
		if srv.Metrics().Snapshot().ResultMisses != missesBefore {
			t.spans[first-1].Name = "middleware.handle_miss"
		}
	}
	hits1, misses1 := lookups.Stats()

	// Every replayed request is now cached, so a second round is all hits:
	// once over HTTP and once in process, each back to back as the timed
	// section sends them. Their difference is what the HTTP surface costs.
	c := r.clients[0]
	for i, body := range bodies {
		rt := t.begin("http.roundtrip_hit", 0, replayBase+i)
		status, _, err := c.post("/viz", body, "")
		t.end(rt)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("HTTP replay of request %d: status %d: %v", i, status, err)
		}
	}
	for i, req := range reqs {
		var err error
		t.in("middleware.handle_hit", 0, replayBase+i, func() { _, err = srv.Handle(req) })
		if err != nil {
			return nil, err
		}
	}

	n := float64(len(bodies))
	m := map[string]float64{
		"engine.index_probe_us":          t.medianOf("engine.index_probe", time.Microsecond),
		"engine.exec_chosen_us":          t.medianOf("engine.exec_chosen", time.Microsecond),
		"engine.exec_seqscan_us":         t.medianOf("engine.exec_seqscan", time.Microsecond),
		"engine.choose_plan_us":          t.medianOf("engine.choose_plan", time.Microsecond),
		"engine.rows_touched_per_output": touched / max(output, 1),
		"engine.lookup_hit_frac":         frac(hits1-hits0, hits1-hits0+misses1-misses0),
		"core.build_context_us":          t.medianOf("core.build_context", time.Microsecond),
		"core.options_per_query":         options / n,
		"core.rewrite_us":                t.medianOf("core.rewrite", time.Microsecond),
		"core.agent_greedy_ns":           t.medianOf("core.agent_greedy", time.Nanosecond),
		"core.explored_per_query":        explored / n,
		"core.baseline_fallback_frac":    float64(fallback) / n,
		"core.oracle_viable_gap":         float64(oracleViable-mdpViable) / n,
		"viz.bin_us":                     t.medianOf("viz.bin", time.Microsecond),
		"middleware.parse_us":            t.medianOf("middleware.parse", time.Microsecond),
		"middleware.build_query_us":      t.medianOf("middleware.build_query", time.Microsecond),
		"middleware.handle_hit_us":       t.medianOf("middleware.handle_hit", time.Microsecond),
		"middleware.handle_miss_us":      t.medianOf("middleware.handle_miss", time.Microsecond),
		"middleware.encode_us":           t.medianOf("middleware.encode", time.Microsecond),
	}
	m["middleware.http_overhead_us"] = t.medianOf("http.roundtrip_hit", time.Microsecond) - m["middleware.handle_hit_us"]

	if err := r.traceCluster(bodies, m); err != nil {
		return nil, err
	}
	if err := r.traceIngest(outDir, m); err != nil {
		return nil, err
	}
	return m, t.write(filepath.Join(outDir, "trace-"+r.name+".json"))
}

// traceCluster times the cluster tier's routing on warm keys: computing a
// request's routing key, finding its owner on the ring, and what a
// 3-replica router adds over the plain gateway handler — both called
// through httptest, so no socket is involved on either side.
func (r *run) traceCluster(bodies [][]byte, m map[string]float64) error {
	t, srv := r.spans, r.gw.srv
	const replicas = 3
	cl, err := cluster.New(cluster.Config{
		Replicas: replicas,
		Names:    []string{datasetName},
		Datasets: map[string]*workload.Dataset{datasetName: r.fx.ds},
		Factory:  r.fx.factory,
		Server:   servingConfig(),
		Space:    core.HintOnlySpec(),
	})
	if err != nil {
		return fmt.Errorf("building cluster: %w", err)
	}
	defer cl.Close()
	if err := cl.Warm(); err != nil {
		return fmt.Errorf("warming cluster: %w", err)
	}
	if len(bodies) > 100 {
		bodies = bodies[:100]
	}
	serve := func(h http.Handler, body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/viz", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	router, gateway := cl.Handler(), r.gw.gw.Handler()
	for pass := 0; pass < 2; pass++ { // pass 0 warms every key on both sides
		for i, body := range bodies {
			id := replayBase + i
			req, err := middleware.ParseRequest(body)
			if err != nil {
				return err
			}
			var key middleware.ResultKey
			t.in(passName(pass, "cluster.route_key"), 0, id, func() { key, err = srv.ResultKeyFor(req) })
			if err != nil {
				return err
			}
			hash := key.Hash()
			t.in(passName(pass, "cluster.ring_owner"), 0, id, func() { cl.Ring().Owner(hash) })
			t.in(passName(pass, "cluster.router"), 0, id, func() { err = serve(router, body) })
			if err != nil {
				return fmt.Errorf("cluster router: %w", err)
			}
			t.in(passName(pass, "cluster.gateway"), 0, id, func() { err = serve(gateway, body) })
			if err != nil {
				return fmt.Errorf("gateway handler: %w", err)
			}
		}
	}
	m["cluster.route_key_us"] = t.medianOf("cluster.route_key", time.Microsecond)
	m["cluster.ring_owner_ns"] = t.medianOf("cluster.ring_owner", time.Nanosecond)
	m["cluster.router_overhead_us"] = t.medianOf("cluster.router", time.Microsecond) - t.medianOf("cluster.gateway", time.Microsecond)
	return nil
}

// passName marks the warming pass's spans so the metrics skip them.
func passName(pass int, name string) string {
	if pass == 0 {
		return name + ".warmup"
	}
	return name
}

// traceIngest times DB.ApplyBatch with and without a write-ahead log, on
// identical batches: with the log on the run's own dataset (attached now
// unless the workload already wrote through one), without it on a second
// dataset built for the purpose.
func (r *run) traceIngest(outDir string, m map[string]float64) error {
	t := r.spans
	if r.wal == nil {
		if err := r.attachWAL(outDir); err != nil {
			return fmt.Errorf("attaching WAL: %w", err)
		}
	}
	cfg := workload.TwitterConfig()
	cfg.Rows = r.fx.ds.DB.Table(r.fx.ds.Main).Rows
	cfg.Scale = 100e6 / float64(cfg.Rows)
	plain, err := workload.Twitter(cfg)
	if err != nil {
		return err
	}
	st, err := workload.NewIngestStream(plain, r.seed+900)
	if err != nil {
		return err
	}
	const batches = 24
	rows := 0
	// No segment rotates within these few batches, so the active segment's
	// growth is the bytes logged.
	bytes0 := r.wal.Stats().ActiveBytes
	for i := 0; i < batches; i++ {
		wire := st.Next(r.n.postRows)
		rows += len(wire)
		for _, side := range []struct {
			name string
			ds   *workload.Dataset
		}{{"engine.apply_batch_wal", r.fx.ds}, {"engine.apply_batch", plain}} {
			b, err := workload.RowsToBatch(side.ds, wire)
			if err != nil {
				return err
			}
			t.in(side.name, 0, replayBase+i, func() { _, err = side.ds.DB.ApplyBatch(side.ds.Main, b, time.Now()) })
			if err != nil {
				return fmt.Errorf("%s: %w", side.name, err)
			}
		}
	}
	m["engine.apply_batch_us"] = t.medianOf("engine.apply_batch", time.Microsecond)
	m["engine.apply_batch_wal_us"] = t.medianOf("engine.apply_batch_wal", time.Microsecond)
	m["engine.wal_bytes_per_row"] = float64(r.wal.Stats().ActiveBytes-bytes0) / float64(rows)
	return nil
}
