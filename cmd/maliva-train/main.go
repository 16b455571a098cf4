// Command maliva-train trains an MDP query-rewriting agent on a workload and
// saves its policy network as JSON — the one way to make a policy snapshot.
// maliva-server loads it with -agent and serves it with the Accurate-QTE,
// the estimator it was trained against.
//
// Usage:
//
//	maliva-train -dataset twitter -budget 500 -out agent.json
//	maliva-server -dataset twitter -agent twitter=agent.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/qte"
	"github.com/maliva/maliva/internal/workload"
)

func main() {
	var (
		dataset  = flag.String("dataset", "twitter", "dataset: twitter | taxi | tpch")
		budget   = flag.Float64("budget", 500, "time budget τ in virtual ms")
		numPreds = flag.Int("preds", 3, "number of filtering conditions (3-5)")
		queries  = flag.Int("queries", 600, "workload size")
		out      = flag.String("out", "maliva-agent.json", "output policy file")
		small    = flag.Bool("small", true, "use reduced dataset size")
	)
	flag.Parse()

	ds, err := buildDataset(*dataset, *small)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "building workload: %d queries on %s\n", *queries, ds.Name)
	lab, err := harness.BuildLab(ds, harness.LabConfig{
		NumQueries: *queries,
		QuerySpec:  workload.QuerySpec{NumPreds: *numPreds, Seed: 5},
		Space:      core.HintOnlySpec(),
		Budget:     *budget,
		Seed:       9,
		Progress:   os.Stderr,
	})
	if err != nil {
		fatal(err)
	}

	// maliva-server serves every snapshot with the Accurate-QTE, so the
	// policy is trained against that estimator.
	est := qte.NewAccurateQTE()
	fmt.Fprintf(os.Stderr, "training MDP agent (%s, τ=%.0fms)\n", est.Name(), *budget)
	start := time.Now()
	agent, valScore := lab.TrainAgent(harness.TrainAgentConfig{
		Agent: core.DefaultAgentConfig(),
		QTE:   est,
		Seeds: []int64{7, 17},
	})
	fmt.Fprintf(os.Stderr, "trained in %s, validation score %.3f\n",
		time.Since(start).Round(time.Millisecond), valScore)

	if err := core.SaveAgentFile(*out, agent); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "policy saved to %s\n", *out)
}

func buildDataset(name string, small bool) (*workload.Dataset, error) {
	switch name {
	case "twitter":
		c := workload.TwitterConfig()
		if small {
			c.Rows = 60_000
			c.Scale = 100e6 / float64(c.Rows)
		}
		return workload.Twitter(c)
	case "taxi":
		c := workload.TaxiConfig()
		if small {
			c.Rows = 60_000
			c.Scale = 500e6 / float64(c.Rows)
		}
		return workload.Taxi(c)
	case "tpch":
		c := workload.TPCHConfig()
		if small {
			c.Rows = 60_000
			c.Scale = 300e6 / float64(c.Rows)
		}
		return workload.TPCH(c)
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maliva-train:", err)
	os.Exit(1)
}
