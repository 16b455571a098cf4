package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/middleware"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

const datasetName = "twitter"

// sizing is what -smoke shrinks; everything else about a run is fixed.
type sizing struct {
	rows       int
	labQueries int
}

var (
	fullSizing  = sizing{rows: 60_000, labQueries: 300}
	smokeSizing = sizing{rows: 12_000, labQueries: 60}
)

// fixture is what every workload starts from: the dataset and an MDP policy
// trained on it with the cmd/maliva-train recipe.
type fixture struct {
	ds    *workload.Dataset
	dom   domain
	agent []byte // policy snapshot; every server loads its own copy
	// stages is the wall time of each set-up stage in seconds, keyed by the
	// per-layer metric that reports it.
	stages map[string]float64
}

func buildFixture(sz sizing) (*fixture, error) {
	f := &fixture{stages: make(map[string]float64)}
	stage := func(name string, t0 time.Time) { f.stages[name] = time.Since(t0).Seconds() }

	t0 := time.Now()
	cfg := workload.TwitterConfig()
	cfg.Rows = sz.rows
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		return nil, fmt.Errorf("building dataset: %w", err)
	}
	f.ds, f.dom = ds, domainOf(ds)
	stage("workload.build_dataset_s", t0)

	t0 = time.Now()
	lab, err := harness.BuildLab(ds, harness.LabConfig{
		NumQueries: sz.labQueries,
		QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
		Space:      core.HintOnlySpec(),
		Budget:     budgetMs,
		Seed:       9,
	})
	if err != nil {
		return nil, fmt.Errorf("building lab: %w", err)
	}
	stage("harness.build_lab_s", t0)

	t0 = time.Now()
	agent, _ := lab.TrainAgent(harness.TrainAgentConfig{
		Agent: core.DefaultAgentConfig(),
		QTE:   qte.NewAccurateQTE(),
		Seeds: []int64{7, 17},
	})
	if f.agent, err = json.Marshal(agent); err != nil {
		return nil, fmt.Errorf("serializing agent: %w", err)
	}
	stage("harness.train_agent_s", t0)
	return f, nil
}

// rewriter loads a private copy of the trained policy: an agent reuses its
// forward-pass buffers, and each Server serializes only its own rewriter.
func (f *fixture) rewriter() (*core.MDPRewriter, error) {
	a, err := core.LoadAgent(f.agent, core.DefaultAgentConfig())
	if err != nil {
		return nil, err
	}
	return &core.MDPRewriter{Agent: a, QTE: qte.NewAccurateQTE(), Tag: "Accurate-QTE"}, nil
}

func (f *fixture) factory(string, *workload.Dataset) (core.Rewriter, error) { return f.rewriter() }

// servingConfig is maliva-server's shipped configuration with one change:
// the 30 s default ResultTTL would expire warm entries part-way through a
// run on a slow machine and not on a fast one.
func servingConfig() middleware.ServerConfig {
	return middleware.ServerConfig{DefaultBudgetMs: budgetMs, ResultTTL: 10 * time.Minute}
}

// uncachedConfig is the reference the correctness gate compares against:
// every request plans and executes from scratch.
func uncachedConfig() middleware.ServerConfig {
	return middleware.ServerConfig{DefaultBudgetMs: budgetMs, PlanCacheSize: -1, ResultCacheSize: -1}
}

// gateway is an in-process middleware.Gateway on a loopback listener.
type gateway struct {
	gw  *middleware.Gateway
	srv *middleware.Server
	url string
	hs  *http.Server
}

func (f *fixture) startGateway(cfg middleware.ServerConfig) (*gateway, error) {
	reg := workload.NewRegistry()
	if err := reg.Register(datasetName, func() (*workload.Dataset, error) { return f.ds, nil }); err != nil {
		return nil, err
	}
	gw, err := middleware.NewGateway(reg, f.factory, middleware.GatewayConfig{Server: cfg, Space: core.HintOnlySpec()})
	if err != nil {
		return nil, err
	}
	if err := gw.Warm(); err != nil {
		return nil, err
	}
	srv, err := gw.Server(datasetName)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: gw.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns once close() closes the listener
	return &gateway{gw: gw, srv: srv, url: "http://" + ln.Addr().String(), hs: hs}, nil
}

func (g *gateway) close() {
	_ = g.hs.Close()
	_ = g.gw.Close()
}
