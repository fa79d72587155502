// Package baselines implements every comparison system of the paper's
// evaluation (§8.1): the TorchArrow-style CPU preprocessing baseline,
// the handcrafted CUDA-stream and MPS GPU-sharing baselines, the
// fully-sequential GPU baseline, the preprocessing-free Ideal bound and
// RAP itself — all runnable on the same simulated cluster so Figures
// 9-11 compare like with like.
package baselines

import (
	"fmt"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
	"rap/internal/rap"
	"rap/internal/sched"
)

// System names one evaluated system.
type System string

// The evaluated systems.
const (
	// SystemRAP is the full framework (mapping + fusion + Algorithm 1).
	SystemRAP System = "RAP"
	// SystemSequential runs GPU preprocessing strictly between training
	// iterations (all preprocessing latency exposed).
	SystemSequential System = "Sequential"
	// SystemStream overlaps unfused kernels on a low-priority CUDA
	// stream: training keeps priority, preprocessing starves on busy
	// stages and becomes the bottleneck.
	SystemStream System = "CUDA-Stream"
	// SystemMPS overlaps a separate preprocessing process under MPS
	// fair sharing: preprocessing progresses but contends with and
	// stretches training.
	SystemMPS System = "MPS"
	// SystemTorchArrow preprocesses on host CPUs (8 workers per GPU).
	SystemTorchArrow System = "TorchArrow"
	// SystemIdeal trains with zero preprocessing cost.
	SystemIdeal System = "Ideal"
)

// AllSystems lists the systems in presentation order.
func AllSystems() []System {
	return []System{SystemTorchArrow, SystemSequential, SystemStream, SystemMPS, SystemRAP, SystemIdeal}
}

// TorchArrowWorkers is the paper's per-GPU CPU worker count (§8.1).
const TorchArrowWorkers = 8

// CPUSlowdownPerWorker is the cost ratio of one CPU preprocessing
// worker versus the GPU executing the same operator work: element-wise
// hashing/normalization throughput of one CPU worker vs. an A100-class
// GPU. It prices the TorchArrow baseline (the paper measures RAP at
// ~17.8× TorchArrow end to end).
const CPUSlowdownPerWorker = 500.0

// RunResult is one (system, workload, cluster) measurement.
type RunResult struct {
	System      System
	Throughput  float64 // global samples/s
	IterLatency float64 // steady-state per-iteration latency (µs)
	Stats       *sched.PipelineStats
	Plan        *rap.ExecPlan // nil for Ideal/TorchArrow
}

// Run executes one system on a workload.
func Run(sys System, w *rap.Workload, cluster gpusim.ClusterConfig, iterations int) (RunResult, error) {
	cluster = cluster.WithDefaults()
	switch sys {
	case SystemRAP:
		cluster.Policy = gpusim.FairShare
		return runFramework(sys, w, cluster, iterations, rap.BuildOptions{})
	case SystemSequential:
		cluster.Policy = gpusim.FairShare
		return runFramework(sys, w, cluster, iterations, rap.BuildOptions{
			Strategy:          rap.MapDataParallel,
			NoFusion:          true,
			NoInterleave:      true,
			NaiveSchedule:     true,
			SequentialPreproc: true,
		})
	case SystemStream:
		cluster.Policy = gpusim.PrioritySpace
		return runFramework(sys, w, cluster, iterations, rap.BuildOptions{
			Strategy:      rap.MapDataParallel,
			NoFusion:      true,
			NoInterleave:  true,
			NaiveSchedule: true,
			// Low-priority stream: training preempts, preprocessing
			// only gets leftovers.
			PreprocPriority: 0,
		})
	case SystemMPS:
		cluster.Policy = gpusim.FairShare
		return runFramework(sys, w, cluster, iterations, rap.BuildOptions{
			Strategy:      rap.MapDataParallel,
			NoFusion:      true,
			NoInterleave:  true,
			NaiveSchedule: true,
			// MPS: both processes share the GPU on equal footing.
			PreprocPriority: 1,
		})
	case SystemTorchArrow:
		return runTorchArrow(w, cluster, iterations)
	case SystemIdeal:
		return runIdeal(w, cluster, iterations)
	default:
		return RunResult{}, fmt.Errorf("baselines: unknown system %q", sys)
	}
}

func runFramework(sys System, w *rap.Workload, cluster gpusim.ClusterConfig, iterations int, opts rap.BuildOptions) (RunResult, error) {
	f := rap.New(w, cluster)
	p, err := f.BuildPlan(opts)
	if err != nil {
		return RunResult{}, err
	}
	stats, err := f.Execute(p, iterations)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{System: sys, Throughput: stats.Throughput, IterLatency: stats.SteadyIterLatency, Stats: stats, Plan: p}, nil
}

// runTorchArrow replaces GPU preprocessing with host-CPU workers: each
// GPU's batch is preprocessed by TorchArrowWorkers CPU workers drawn
// from the shared host pool — the pool, not the GPUs, bounds scaling.
func runTorchArrow(w *rap.Workload, cluster gpusim.ClusterConfig, iterations int) (RunResult, error) {
	n := cluster.NumGPUs
	pl := placementFor(w, n)
	gpuWorkUs := w.Plan.SaturatedWork(w.Model.BatchSize)
	cpuUs := gpuWorkUs * CPUSlowdownPerWorker / TorchArrowWorkers
	work := make([]sched.GPUWork, n)
	for g := 0; g < n; g++ {
		work[g] = sched.GPUWork{
			CPUPreprocUs: cpuUs,
			CPUWorkers:   TorchArrowWorkers,
			PrepBytes:    float64(w.Model.BatchSize) * 64,
		}
	}
	stats, err := sched.BuildAndRun(cluster, w.Model, pl, work, sched.PipelineOptions{
		Iterations: iterations,
	})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{System: SystemTorchArrow, Throughput: stats.Throughput, IterLatency: stats.SteadyIterLatency, Stats: stats}, nil
}

// runIdeal trains with no preprocessing at all.
func runIdeal(w *rap.Workload, cluster gpusim.ClusterConfig, iterations int) (RunResult, error) {
	n := cluster.NumGPUs
	pl := placementFor(w, n)
	stats, err := sched.BuildAndRun(cluster, w.Model, pl, make([]sched.GPUWork, n), sched.PipelineOptions{
		Iterations: iterations,
	})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{System: SystemIdeal, Throughput: stats.Throughput, IterLatency: stats.SteadyIterLatency, Stats: stats}, nil
}

func placementFor(w *rap.Workload, numGPUs int) dlrm.Placement {
	return dlrm.PlaceTables(w.Model.TableSizes, numGPUs)
}
