// Command raptrain runs end-to-end online DLRM training with RAP: it
// searches the co-running plan, simulates the pipelined execution for
// timing, and (optionally) runs real data-level training — generating
// raw batches, executing the full preprocessing plan and stepping the
// hybrid-parallel trainer — reporting throughput and loss.
//
// Usage:
//
//	raptrain -dataset terabyte -plan 1 -gpus 4 -iters 20
//	raptrain -plan 0 -functional -iters 50     # real data + real model
//	raptrain -plan 1 -system MPS               # run a baseline instead
package main

import (
	"flag"
	"fmt"
	"os"

	"rap/internal/baselines"
	"rap/internal/data"
	"rap/internal/gpusim"
	"rap/internal/rap"
	"rap/internal/trace"
)

func main() {
	dataset := flag.String("dataset", "terabyte", "kaggle | terabyte")
	plan := flag.Int("plan", 1, "preprocessing plan index 0-3 (Table 3)")
	gpus := flag.Int("gpus", 4, "number of simulated GPUs")
	batch := flag.Int("batch", 4096, "per-GPU batch size")
	iters := flag.Int("iters", 20, "training iterations")
	system := flag.String("system", "RAP", "system to run (RAP, Sequential, CUDA-Stream, MPS, TorchArrow, Ideal)")
	functional := flag.Bool("functional", false, "also run real data-level training (small model) and report losses")
	dataDir := flag.String("data", "", "stream raw batches for the functional run from a rapdata dataset directory")
	traceOut := flag.String("trace", "", "write a Chrome trace (chrome://tracing JSON) of the simulated run")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()
	if *gpus < 1 {
		fatal(fmt.Errorf("-gpus must be at least 1, got %d", *gpus))
	}
	if *iters < 1 {
		fatal(fmt.Errorf("-iters must be at least 1, got %d", *iters))
	}

	w, err := rap.NewWorkload(rap.Dataset(*dataset), *plan, *batch, *seed)
	if err != nil {
		fatal(err)
	}
	cluster := gpusim.ClusterConfig{NumGPUs: *gpus, HostCores: rap.HostCores}

	fmt.Printf("workload: %s / %s — %d dense + %d sparse features, %d ops, %d tables\n",
		w.Dataset, w.Plan.Name, w.Plan.NumDense, w.Plan.NumSparse, w.Plan.NumOps(), w.Plan.NumTables)

	res, err := baselines.Run(baselines.System(*system), w, cluster, *iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: steady iteration latency %.0f us, throughput %.0f samples/s\n",
		res.System, res.IterLatency, res.Throughput)
	if res.Plan != nil {
		fmt.Printf("predicted exposed latency (worst GPU): %.0f us\n", res.Plan.TotalPredictedExposed())
		fmt.Printf("mapping: %s (%d rebalancing moves, %.0f comm bytes/batch)\n",
			res.Plan.Mapping.Strategy, res.Plan.Mapping.Moves, res.Plan.Mapping.TotalComm())
	}
	ideal, err := baselines.Run(baselines.SystemIdeal, w, cluster, *iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ideal (no preprocessing): %.0f samples/s — %s achieves %.1f%% of it\n",
		ideal.Throughput, res.System, 100*res.Throughput/ideal.Throughput)

	if *traceOut != "" && res.Stats != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChromeTrace(f, res.Stats.Result, *gpus); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing)\n", *traceOut)
	}

	if *functional {
		fmt.Println("\nfunctional run (real preprocessing + hybrid-parallel training, small model):")
		fw := w.ShrinkForFunctional()
		workers := *gpus
		globalBatch := 64 * workers
		var out *rap.FunctionalResult
		if *dataDir != "" {
			ds, err := data.OpenDataset(*dataDir)
			if err != nil {
				fatal(err)
			}
			it := ds.Batches()
			it.Loop = true
			defer it.Close()
			fmt.Printf("  streaming raw batches from %s (%d batches on disk)\n", *dataDir, ds.Meta.Batches)
			out, err = rap.RunFunctionalFrom(fw, workers, it, *iters, *seed, 0.05)
			if err != nil {
				fatal(err)
			}
		} else {
			var err error
			out, err = rap.RunFunctional(fw, workers, globalBatch, *iters, *seed)
			if err != nil {
				fatal(err)
			}
		}
		for i, loss := range out.Losses {
			if i%5 == 0 || i == len(out.Losses)-1 {
				fmt.Printf("  iter %3d  loss %.4f\n", i, loss)
			}
		}
		fmt.Printf("  replicas in sync: %v\n", out.InSync)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "raptrain:", err)
	os.Exit(1)
}
