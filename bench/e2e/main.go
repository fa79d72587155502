// Command e2e is the repository's end-to-end benchmark: it times what a
// user runs — a RAP plan, a shift replan, a simulation, the Ideal
// comparison and a Chrome trace per job, or a multi-tenant fleet sweep —
// and checks every result. A traced run adds a per-layer breakdown.
//
// Build and run it through bench/bench.sh from the repository root:
//
//	bash bench/bench.sh --workload dense --seed 1 --seconds 20 --trace 0
//	bash bench/bench.sh --workload dense --trace 1 -spans spans.json
//	bash bench/bench.sh -compare results/A results/B
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics, or the
// per-layer metrics with --trace 1). bench/README.md defines every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	o := options{}
	flag.StringVar(&o.workload, "workload", "", "workload: light, dense, wide or fleet")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smallest inputs, one setup, no measurement window (for tests)")
	flag.StringVar(&o.spans, "spans", "", "spans file of a traced run (default .bench_build/spans-<workload>.json)")
	out := flag.String("out", "", "also write the full result as JSON to this file")
	compareMode := flag.Bool("compare", false, "compare two result sets against BENCHMARK.json's bounds: -compare <setA> <setB>")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result directories"))
		}
		regressed, err := compareSets("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	o.trace = *traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".json")
	}
	if o.quick {
		o.seconds = 0
	}

	res, err := runBench(o)
	if err != nil {
		fatal(err)
	}
	metrics := res.EndToEnd
	if o.trace {
		metrics = res.PerLayer
	}
	printSummary(res, metrics)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printSummary(res *result, metrics map[string]metric) {
	fmt.Printf("# e2e workload=%s seed=%d trace=%v jobs=%d gomaxprocs=%d nproc=%d %s commit=%s\n",
		res.Workload, res.Seed, res.Trace, res.Jobs, res.GOMAXPROCS, res.NumCPU, res.GoVersion, res.Commit)
	fmt.Printf("# input_digest=%s sim_digest=%s\n", res.InputDigest, res.SimDigest)
	for _, k := range []string{"job_ms", "plan_ms", "sim_ms", "calib_ms"} {
		if t, ok := res.Timings[k]; ok {
			fmt.Printf("# %-8s n=%-4d p50=%.4g p90=%.4g q1=%.4g q3=%.4g\n", k, t.N, t.P50, t.P90, t.Q1, t.Q3)
		}
	}
	for _, e := range res.Errors {
		fmt.Printf("# FAILED %s\n", e)
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %-30s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}
