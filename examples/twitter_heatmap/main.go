// Twitter heatmap: run the steps of the Fig. 5 pipeline — a frontend
// request becomes SQL, the MDP rewriter picks a rewritten query under the
// budget, and the binned result is rendered as an ASCII heatmap of the US.
//
// The request deliberately reproduces the paper's Fig. 2 situation: a
// country-wide heatmap over a month that no exact plan can serve in time,
// so the quality-aware agent substitutes a random sample table. The serving
// layer (internal/middleware) answers exactly only, so this example runs the
// steps itself: build the context, rewrite, execute, bin.
//
//	go run ./examples/twitter_heatmap
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/engine"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/viz"
	"github.com/maliva/maliva/internal/workload"
)

func main() {
	log.SetFlags(0)
	cfg := workload.TwitterConfig()
	cfg.Rows = 80_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	ds, err := workload.Twitter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Pre-build the sample tables the approximation rules substitute.
	tweets := ds.DB.Table("tweets")
	for _, pct := range []int{20, 40, 80} {
		if _, err := tweets.BuildSample(pct, 99); err != nil {
			log.Fatal(err)
		}
	}
	// Fig. 11's option space: 8 hint sets, plus 3 sample rules crossed with
	// the hint sets (so a sample table can be paired with the right indexes).
	space := core.SpaceSpec{
		IncludeEmptyHint: true,
		ApproxRules: []core.ApproxRule{
			{Kind: core.ApproxSample, Percent: 20},
			{Kind: core.ApproxSample, Percent: 40},
			{Kind: core.ApproxSample, Percent: 80},
		},
		CrossApprox: true,
	}

	fmt.Println("training the quality-aware MDP agent...")
	lab, err := harness.BuildLab(ds, harness.LabConfig{
		NumQueries: 200,
		QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
		Space:      space,
		Budget:     1000,
		Seed:       9,
	})
	if err != nil {
		log.Fatal(err)
	}
	est := qte.NewAccurateQTE()
	agentCfg := core.DefaultAgentConfig()
	agentCfg.MaxEpochs = 10
	agent, _ := lab.TrainAgent(harness.TrainAgentConfig{
		Agent: agentCfg, QTE: est, Beta: 0.7, Seeds: []int64{7},
	})

	rw := &core.MDPRewriter{Agent: agent, QTE: est, Beta: 0.7, Tag: "quality-aware"}

	// A Thanksgiving-month heatmap over the continental US with a frequent
	// keyword — far too heavy for any exact plan.
	const budgetMs, gridW, gridH = 1000, 56, 18
	from := time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2016, 12, 1, 0, 0, 0, 0, time.UTC)
	q := &engine.Query{
		Table:      "tweets",
		OutputCols: ds.OutputCols,
		Preds: []engine.Predicate{
			{Col: "text", Kind: engine.PredKeyword, Word: tweets.Vocab.ID("word0001"), WordText: "word0001"},
			{Col: "created_at", Kind: engine.PredRange, Lo: float64(from.UnixMilli()), Hi: float64(to.UnixMilli())},
			{Col: "coordinates", Kind: engine.PredGeo, Box: workload.USExtent},
		},
	}
	ctx, err := core.BuildContext(ds.DB, q, core.DefaultContextConfig(space))
	if err != nil {
		log.Fatal(err)
	}
	out := rw.Rewrite(ctx, budgetMs)
	rq, hint, label := q, engine.Hint{}, "original"
	if out.Option >= 0 {
		rq, hint = core.BuildRQ(q, ctx.Options[out.Option], ctx.EstRows, ctx.Scale)
		label = ctx.Options[out.Option].Label(len(q.Preds))
	}
	res, _, err := ds.DB.Run(rq, hint)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nrequest SQL:")
	fmt.Println("  " + q.SQL(engine.Hint{}))
	fmt.Println("rewritten SQL:")
	fmt.Println("  " + rq.SQL(hint))
	fmt.Printf("decision: %s after exploring %d rewritten queries\n", label, out.Explored)
	fmt.Printf("virtual total time: %.0f ms (plan %.0f + exec %.0f), viable=%v, quality=%.2f\n\n",
		out.TotalMs, out.PlanMs, out.ExecMs, out.Viable, out.Quality)

	bins := viz.NewGrid(workload.USExtent, gridW, gridH).Counts(res.Points, res.Weight)
	renderHeatmap(bins, gridW, gridH)
}

// renderHeatmap prints the count grid with density glyphs (north on top).
func renderHeatmap(bins map[int]float64, w, h int) {
	var maxV float64
	for _, v := range bins {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		fmt.Println("(empty result)")
		return
	}
	glyphs := []rune(" .:-=+*#%@")
	for y := h - 1; y >= 0; y-- {
		row := make([]rune, w)
		for x := 0; x < w; x++ {
			v := bins[y*w+x]
			idx := int(float64(len(glyphs)-1) * v / maxV)
			row[x] = glyphs[idx]
		}
		fmt.Println(string(row))
	}
	fmt.Printf("\nmax cell ≈ %.0f matching tweets (sample-weighted)\n", maxV)
}
