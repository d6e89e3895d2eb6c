// Command bench is the repository's benchmark: one command that
// generates seven workloads from a seed, measures each end to end with
// tracing off, measures every funnel layer in a separate traced pass,
// checks the results and prints every metric by name.
//
//	go run ./bench                          all workloads, both passes
//	go run ./bench -workload serve_hot -seed 7 -seconds 10 -trace 0
//	go run ./bench -out results.json -trace-out traces/
//	go run ./bench -compare A.json B.json   exit 1 on a regression
//
// See README.md beside this file for what each workload and metric is
// and why it was chosen; BENCHMARK.json at the repository root is the
// machine-readable declaration.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"seedblast/internal/benchfmt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// schemaResults names the layout of the -out file.
const schemaResults = "seedblast-bench/3"

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Schema     string              `json:"schema"`
	Provenance benchfmt.Provenance `json:"provenance"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Seed       int64               `json:"seed"`
	Seconds    float64             `json:"seconds"` // timed window per workload
	Clients    int                 `json:"clients"` // closed-loop callers on serving workloads
	Workloads  []*workloadResult   `json:"workloads"`
}

// resultLine is the last line of standard output when one workload was
// run: the form the benchmark driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "every input is generated from this seed")
		seconds  = fs.Float64("seconds", 10, "timed window per workload, and the time box of its traced pass")
		trace    = fs.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; both")
		out      = fs.String("out", "", "write every result, with provenance, to this JSON file")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans to trace-<workload>.json in this directory")
		compare  = fs.Bool("compare", false, "compare two result files (or comma-separated lists of repeated runs): -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	cfg := defaultConfig()
	cfg.seed = *seed
	cfg.window = time.Duration(*seconds * float64(time.Second))
	switch *trace {
	case "0":
		cfg.traced = false
	case "1":
		cfg.untraced = false
	case "both":
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	// Never more closed-loop clients than processors: beyond that the
	// clients queue for a CPU and the latency measures the scheduler.
	if procs := runtime.GOMAXPROCS(0); procs < cfg.clients {
		fmt.Fprintf(stderr, "bench: warning: %d processor(s); serving workloads run %d client(s) instead of %d and are not comparable with other hosts\n",
			procs, procs, cfg.clients)
		cfg.clients = procs
	}

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	file := resultsFile{
		Schema: schemaResults, Provenance: benchfmt.Collect(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.window.Seconds(), Clients: cfg.clients,
	}
	status := 0
	for _, w := range selected {
		// A hung daemon must not hang the command.
		ctx, cancel := context.WithTimeout(context.Background(), 3*cfg.window+2*time.Minute)
		res, err := runWorkload(ctx, cfg, w)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(stdout, res)
		for _, p := range res.Problems {
			fmt.Fprintf(stderr, "bench: %s: INCORRECT: %s\n", w.name, p)
		}
		if !res.correct() {
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
			status = 1
		}
		if *traceOut != "" && res.trace != nil {
			if err := res.trace.write(*traceOut, w.name); err != nil {
				fmt.Fprintf(stderr, "bench: writing trace: %v\n", err)
				return 1
			}
		}
		file.Workloads = append(file.Workloads, res)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing results: %v\n", err)
			return 1
		}
	}
	if len(selected) == 1 {
		raw, err := json.Marshal(driverLine(file.Workloads[0]))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", raw)
	}
	return status
}

// printResult prints every measured metric as
// "workload metric value unit n=samples".
func printResult(w io.Writer, res *workloadResult) {
	for _, group := range []map[string]sample{res.EndToEnd, res.PerLayer} {
		for _, name := range sortedKeys(group) {
			s := group[name]
			fmt.Fprintf(w, "%-16s %-30s %14.6g %-6s n=%d\n", res.Name, name, s.Value, s.Unit, s.N)
		}
	}
	fmt.Fprintf(w, "%-16s %-30s %14d %-6s of %d attempted, digest %s\n", res.Name, "failed_ops", res.Failed, "count", res.Attempted, res.Digest)
}

// driverLine renders one workload's result in the driver's form: every
// declared metric of the passes that ran, with 0 for the per-layer
// metrics of layers the workload bypasses (see measuredOn).
func driverLine(res *workloadResult) resultLine {
	line := resultLine{
		Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineMetric),
	}
	if res.EndToEnd != nil {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = lineMetric{res.EndToEnd[d.Name].Value, d.Unit}
		}
	}
	if res.PerLayer != nil {
		for _, d := range perLayer {
			line.Metrics[d.Name] = lineMetric{res.PerLayer[d.Name].Value, d.Unit}
		}
	}
	return line
}
