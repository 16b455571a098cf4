// Command bench is the repository's serving benchmark: four count-boxed
// workloads driven through the real HTTP surface of an in-process
// middleware.Gateway, each with its cache regime pinned during set-up, the
// paper's virtual-clock metrics (viable-query fraction, mean virtual response
// time) reported beside the wall clock a client sees, a correctness gate
// against an uncached reference, and a separate traced run that times the
// calls into each layer. BENCHMARK.json at the repository root is its
// contract; README.md in this directory explains every choice.
//
// Usage:
//
//	go run ./bench -workload cold_unique -seed 1            # end-to-end metrics
//	go run ./bench -workload cold_unique -seed 1 -trace 1   # per-layer metrics
//	go run ./bench -all                                     # everything, by name
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units (gen_test.go holds the two together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"latency_mean_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"viable_frac", "ratio"},
	{"virtual_ms_mean", "ms"},
	{"heap_live_mb", "MiB"},
}

var perLayer = []metricDef{
	{"workload.build_dataset_s", "s"},
	{"harness.build_lab_s", "s"},
	{"harness.train_agent_s", "s"},
	{"middleware.warmup_s", "s"},
	{"engine.index_probe_us", "us"},
	{"engine.exec_chosen_us", "us"},
	{"engine.exec_seqscan_us", "us"},
	{"engine.choose_plan_us", "us"},
	{"engine.rows_touched_per_output", "ratio"},
	{"engine.lookup_hit_frac", "ratio"},
	{"core.build_context_us", "us"},
	{"core.options_per_query", "count"},
	{"core.rewrite_us", "us"},
	{"core.agent_greedy_ns", "ns"},
	{"core.explored_per_query", "count"},
	{"core.baseline_fallback_frac", "ratio"},
	{"core.oracle_viable_gap", "ratio"},
	{"viz.bin_us", "us"},
	{"middleware.parse_us", "us"},
	{"middleware.build_query_us", "us"},
	{"middleware.handle_hit_us", "us"},
	{"middleware.handle_miss_us", "us"},
	{"middleware.encode_us", "us"},
	{"middleware.http_overhead_us", "us"},
	{"middleware.plan_hit_frac", "ratio"},
	{"middleware.result_hit_frac", "ratio"},
	{"middleware.subsumed_frac", "ratio"},
	{"middleware.exec_coalesced_frac", "ratio"},
	{"middleware.prefetch_hit_frac", "ratio"},
	{"middleware.prefetch_waste_frac", "ratio"},
	{"middleware.prefetch_shed_frac", "ratio"},
	{"middleware.rejected_frac", "ratio"},
	{"middleware.flush_p95_ms", "ms"},
	{"middleware.ingest_flushes", "count"},
	{"middleware.ingest_rows", "count"},
	{"middleware.ingest_ack_p95_ms", "ms"},
	{"engine.apply_batch_us", "us"},
	{"engine.apply_batch_wal_us", "us"},
	{"engine.wal_bytes_per_row", "B"},
	{"cluster.route_key_us", "us"},
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.router_overhead_us", "us"},
	{"bench.pass_spread_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	coldWarm int
	outDir   string
}

func main() {
	var (
		o     options
		trace int
		all   bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives byte-identical request sequences")
	flag.IntVar(&o.seconds, "seconds", referenceSeconds, "sizes the timed request counts (the default gives the reference counts); never a wall-clock cut-off")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny counts and dataset (seconds, not minutes): exercises every code path, asserts no regime")
	flag.BoolVar(&all, "all", false, "run every workload untraced and traced, one process each, and print every metric")
	flag.IntVar(&o.coldWarm, "cold-warm", 0, "override cold_unique's warm-up count W (README's one-off regime experiment)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files and the temporary WAL")
	flag.Parse()
	o.trace = trace != 0

	if all {
		if err := runAll(o); err != nil {
			fatal(err)
		}
		return
	}
	def, ok := workloadByName(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (want %s, or -all)", o.workload, strings.Join(workloadNames(), " | ")))
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	res, err := execute(def, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload untraced and traced. Each run is its own
// process, exactly as the driver starts them, so the numbers are the ones a
// single-workload invocation reports (a shared process would share heap,
// pools and a warmed-up runtime).
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-out", o.outDir}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					return err
				}
				failed = append(failed, w.name+" -trace "+trace)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

// header prints the hardware and configuration a result was measured on.
func header(w io.Writer, def workloadDef, o options, sz sizing) {
	fmt.Fprintf(w, "# bench %s  trace=%v  seed=%d  seconds=%d  smoke=%v\n", def.name, o.trace, o.seed, o.seconds, o.smoke)
	fmt.Fprintf(w, "# cpu=%q  nproc=%d  gomaxprocs=%d  clients=%d  %s  rows=%d  commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), numClients(), runtime.Version(), sz.rows, commit())
	fmt.Fprintf(w, "# why: %s\n", def.why)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report prints the metric table and builds the result line.
func report(w io.Writer, defs []metricDef, values map[string]float64, ops tally, regimeErr error) *result {
	res := &result{Correct: regimeErr == nil && ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d\n", ops.attempted, ops.failed)
	if ops.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", ops.firstErr)
	}
	if regimeErr != nil {
		fmt.Fprintf(w, "# regime check failed: %v\n", regimeErr)
	}
	return res
}
