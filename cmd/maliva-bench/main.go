// Command maliva-bench regenerates the paper's tables and figures and
// reports each experiment's wall clock.
//
// Usage:
//
//	maliva-bench                 # run every experiment at full scale
//	maliva-bench -exp fig12      # run one experiment
//	maliva-bench -small          # reduced sizes (minutes instead of tens)
//	maliva-bench -list           # list experiment ids
//	maliva-bench -procs 8        # cap worker parallelism (default: all cores)
//	maliva-bench -json out.json  # machine-readable wall-clock trajectory
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/maliva/maliva/internal/harness"
)

// expResult is one experiment's wall clock in the JSON trajectory.
type expResult struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMs float64 `json:"wall_ms"`
}

// benchReport is the top-level JSON snapshot written by -json.
type benchReport struct {
	Timestamp   string      `json:"timestamp"`
	GoVersion   string      `json:"go_version"`
	Procs       int         `json:"procs"`
	Small       bool        `json:"small"`
	Experiments []expResult `json:"experiments,omitempty"`
}

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id to run (default: all)")
		small    = flag.Bool("small", false, "use reduced workload sizes")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		procs    = flag.Int("procs", 0, "GOMAXPROCS override (0 = all cores)")
		jsonPath = flag.String("json", "", "write a machine-readable wall-clock report to this file")
	)
	flag.Parse()

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	report := benchReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Procs:     runtime.GOMAXPROCS(0),
		Small:     *small,
	}

	cfg := harness.RunConfig{Small: *small}
	if !*quiet {
		cfg.Out = os.Stderr
	}

	var exps []harness.Experiment
	if *expID == "" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	for _, e := range exps {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s: %s\n", e.ID, e.Title)
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		rep.Write(os.Stdout)
		wall := time.Since(start)
		report.Experiments = append(report.Experiments, expResult{
			ID: e.ID, Title: e.Title, WallMs: float64(wall.Microseconds()) / 1000,
		})
		fmt.Fprintf(os.Stderr, "done %s in %s\n\n", e.ID, wall.Round(time.Millisecond))
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write report: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}
