// Quickstart: build a small Twitter-like dataset, train a Maliva MDP agent,
// and rewrite one visualization query under a 500 ms budget.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. A synthetic 100M-row (simulated) tweets table with inverted,
	//    B+-tree and R-tree indexes.
	cfg := workload.TwitterConfig()
	cfg.Rows = 40_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the MDP agent on a workload of random visualization queries.
	fmt.Println("training the MDP agent (a few seconds)...")
	lab, err := harness.BuildLab(ds, harness.LabConfig{
		NumQueries: 240,
		QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
		Space:      core.HintOnlySpec(),
		Budget:     500,
		Seed:       9,
	})
	if err != nil {
		log.Fatal(err)
	}
	est := qte.NewAccurateQTE()
	agentCfg := core.DefaultAgentConfig()
	agentCfg.MaxEpochs = 10
	agent, _ := lab.TrainAgent(harness.TrainAgentConfig{Agent: agentCfg, QTE: est, Seeds: []int64{7}})
	rewriter := &core.MDPRewriter{Agent: agent, QTE: est, Tag: "Accurate-QTE"}

	// 3. A visualization request: tweets containing a frequent keyword, in a
	//    western-US region, during one week (the paper's Fig. 1 scenario).
	t := ds.DB.Table("tweets")
	q := &engine.Query{
		Table:      "tweets",
		OutputCols: []string{"id", "coordinates"},
		Preds: []engine.Predicate{
			{Col: "text", Kind: engine.PredKeyword, Word: t.Vocab.ID("word0050"), WordText: "word0050"},
			{Col: "created_at", Kind: engine.PredRange,
				Lo: float64(ds.TimeOrigin.UnixMilli()), Hi: float64(ds.TimeOrigin.AddDate(0, 0, 7).UnixMilli())},
			{Col: "coordinates", Kind: engine.PredGeo,
				Box: engine.Rect{MinLon: -124.4, MinLat: 32.5, MaxLon: -114.1, MaxLat: 42.0}},
		},
	}
	fmt.Println("\noriginal query:")
	fmt.Println(" ", q.SQL(engine.Hint{}))

	ctx, err := core.BuildContext(ds.DB, q, core.DefaultContextConfig(core.HintOnlySpec()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbackend optimizer alone would take %.0f ms (budget 500 ms)\n", ctx.BaselineMs)

	// 4. Maliva decides which rewritten queries to estimate, then commits.
	out := rewriter.Rewrite(ctx, 500)
	opt := ctx.Options[out.Option]
	rq, hint := core.BuildRQ(q, opt, ctx.EstRows, ctx.Scale)
	fmt.Println("\nMaliva's rewritten query:")
	fmt.Println(" ", rq.SQL(hint))
	fmt.Printf("\nexplored %d of %d rewritten queries, planning %.0f ms + execution %.0f ms = %.0f ms total (viable: %v)\n",
		out.Explored, ctx.N(), out.PlanMs, out.ExecMs, out.TotalMs, out.Viable)
	if !out.Viable && ctx.NumViable(500) == 0 {
		fmt.Println("(no exact plan can meet this budget; see examples/quality_aware for approximation rules)")
	}
}
