// Command maliva-bench regenerates the paper's tables and figures and
// benchmarks the offline pipeline.
//
// Usage:
//
//	maliva-bench                 # run every experiment at full scale
//	maliva-bench -exp fig12      # run one experiment
//	maliva-bench -small          # reduced sizes (minutes instead of tens)
//	maliva-bench -list           # list experiment ids
//	maliva-bench -procs 8        # cap worker parallelism (default: all cores)
//	maliva-bench -labbench       # serial-vs-parallel lab build speedup
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

	"github.com/maliva/maliva/internal/core"
	"github.com/maliva/maliva/internal/harness"
	"github.com/maliva/maliva/internal/workload"
)

// expResult is one experiment's wall clock in the JSON trajectory.
type expResult struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMs float64 `json:"wall_ms"`
}

// labBenchResult reports the serial-vs-parallel ground-truth pipeline
// comparison.
type labBenchResult struct {
	NumQueries    int     `json:"num_queries"`
	Rows          int     `json:"rows"`
	SerialMs      float64 `json:"serial_ms"`
	ParallelMs    float64 `json:"parallel_ms"`
	Speedup       float64 `json:"speedup"`
	WorkersUsed   int     `json:"workers_used"`
	Deterministic bool    `json:"deterministic"`
}

// benchReport is the top-level JSON snapshot written by -json.
type benchReport struct {
	Timestamp   string          `json:"timestamp"`
	GoVersion   string          `json:"go_version"`
	Procs       int             `json:"procs"`
	Small       bool            `json:"small"`
	Experiments []expResult     `json:"experiments,omitempty"`
	LabBench    *labBenchResult `json:"lab_bench,omitempty"`
}

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id to run (default: all)")
		small    = flag.Bool("small", false, "use reduced workload sizes")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		procs    = flag.Int("procs", 0, "GOMAXPROCS override (0 = all cores)")
		labbench = flag.Bool("labbench", false, "run the serial-vs-parallel lab-build comparison")
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

	if *labbench {
		lb, err := runLabBench(*small)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labbench failed: %v\n", err)
			os.Exit(1)
		}
		report.LabBench = lb
		fmt.Printf("lab build: %d queries, %d rows, %d workers\n", lb.NumQueries, lb.Rows, lb.WorkersUsed)
		fmt.Printf("  serial   %8.1f ms\n", lb.SerialMs)
		fmt.Printf("  parallel %8.1f ms\n", lb.ParallelMs)
		fmt.Printf("  speedup  %8.2fx (deterministic: %v)\n", lb.Speedup, lb.Deterministic)
	} else {
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

// runLabBench builds the same lab serially and with the worker pool,
// measures wall clock, and cross-checks that both pipelines produced
// bit-identical ground truth.
func runLabBench(small bool) (*labBenchResult, error) {
	dcfg := workload.TwitterConfig()
	numQueries := 120
	if small {
		dcfg.Rows = 20_000
		dcfg.Scale = 100e6 / float64(dcfg.Rows)
		numQueries = 24
	}
	lcfg := harness.LabConfig{
		NumQueries: numQueries,
		QuerySpec:  workload.QuerySpec{NumPreds: 3, Seed: 5},
		Space:      core.HintOnlySpec(),
		Budget:     500,
		Seed:       9,
	}

	// Independent datasets so neither run warms the other's stats cache.
	dsSerial, err := workload.Twitter(dcfg)
	if err != nil {
		return nil, err
	}
	dsParallel, err := workload.Twitter(dcfg)
	if err != nil {
		return nil, err
	}

	serialCfg := lcfg
	serialCfg.Parallel = 1
	t0 := time.Now()
	serialLab, err := harness.BuildLab(dsSerial, serialCfg)
	if err != nil {
		return nil, err
	}
	serialMs := float64(time.Since(t0).Microseconds()) / 1000

	parallelCfg := lcfg
	parallelCfg.Parallel = 0
	t1 := time.Now()
	parallelLab, err := harness.BuildLab(dsParallel, parallelCfg)
	if err != nil {
		return nil, err
	}
	parallelMs := float64(time.Since(t1).Microseconds()) / 1000

	deterministic := labsIdentical(serialLab, parallelLab)
	speedup := 0.0
	if parallelMs > 0 {
		speedup = serialMs / parallelMs
	}
	return &labBenchResult{
		NumQueries:    numQueries,
		Rows:          dcfg.Rows,
		SerialMs:      serialMs,
		ParallelMs:    parallelMs,
		Speedup:       speedup,
		WorkersUsed:   runtime.GOMAXPROCS(0),
		Deterministic: deterministic,
	}, nil
}

// labsIdentical compares the observable ground truth of two labs.
func labsIdentical(a, b *harness.Lab) bool {
	eq := func(x, y []*core.QueryContext) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Fingerprint != y[i].Fingerprint ||
				x[i].BaselineMs != y[i].BaselineMs ||
				x[i].BaselineOption != y[i].BaselineOption {
				return false
			}
			if len(x[i].TrueMs) != len(y[i].TrueMs) ||
				len(x[i].Quality) != len(y[i].Quality) ||
				len(x[i].SelSampled) != len(y[i].SelSampled) {
				return false
			}
			for j := range x[i].TrueMs {
				if x[i].TrueMs[j] != y[i].TrueMs[j] ||
					x[i].Quality[j] != y[i].Quality[j] {
					return false
				}
			}
			for j := range x[i].SelSampled {
				if x[i].SelSampled[j] != y[i].SelSampled[j] {
					return false
				}
			}
		}
		return true
	}
	return eq(a.Train, b.Train) && eq(a.Val, b.Val) && eq(a.Eval, b.Eval)
}
