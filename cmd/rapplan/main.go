// Command rapplan runs RAP's offline + online optimization passes for a
// workload and prints the searched co-running plan: the inter-GPU graph
// mapping, the horizontal-fusion result, the per-stage co-run schedule
// and the predicted exposed latency — optionally as a JSON artifact.
//
// Usage:
//
//	rapplan -dataset terabyte -plan 1 -gpus 4 -batch 4096
//	rapplan -plan 2 -gpus 8 -json
//	rapplan -plan 1 -strategy dl          # inspect a baseline mapping
//	rapplan -plan 1 -train-predictor      # use the GBDT predictor
package main

import (
	"flag"
	"fmt"
	"os"

	"rap/internal/gpusim"
	"rap/internal/rap"
)

func main() {
	dataset := flag.String("dataset", "terabyte", "kaggle | terabyte")
	plan := flag.Int("plan", 1, "preprocessing plan index 0-3 (Table 3)")
	gpus := flag.Int("gpus", 4, "number of simulated GPUs")
	batch := flag.Int("batch", 4096, "per-GPU batch size")
	strategy := flag.String("strategy", "rap", "mapping strategy: rap | dp | dl")
	noFusion := flag.Bool("no-fusion", false, "disable horizontal fusion")
	noSharding := flag.Bool("no-sharding", false, "disable resource-aware kernel sharding")
	trainPred := flag.Bool("train-predictor", false, "train the GBDT latency predictor (offline pass) instead of the analytic model")
	asJSON := flag.Bool("json", false, "emit the machine-readable plan artifact")
	flag.Parse()
	if *gpus < 1 {
		fatal(fmt.Errorf("-gpus must be at least 1, got %d", *gpus))
	}

	w, err := rap.NewWorkload(rap.Dataset(*dataset), *plan, *batch, 1)
	if err != nil {
		fatal(err)
	}
	f := rap.New(w, gpusim.ClusterConfig{NumGPUs: *gpus})
	if *trainPred {
		acc, err := f.OfflineTrainPredictor(6000, 1)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "offline pass: predictor accuracy@10%% per category: %v\n", acc)
	}
	p, err := f.BuildPlan(rap.BuildOptions{
		Strategy:   rap.MappingStrategy(*strategy),
		NoFusion:   *noFusion,
		NoSharding: *noSharding,
	})
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		js, err := rap.MarshalPlan(p)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(js)
		fmt.Println()
		return
	}
	fmt.Print(rap.CodeGen(p))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapplan:", err)
	os.Exit(1)
}
