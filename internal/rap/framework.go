package rap

import (
	"fmt"
	"sync"

	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/fusion"
	"rap/internal/gbdt"
	"rap/internal/gpusim"
	"rap/internal/mapping"
	"rap/internal/sched"
	"rap/internal/topo"
)

// MappingStrategy selects the inter-GPU graph mapping.
type MappingStrategy string

// The three strategies compared in §8.4 / Figure 12.
const (
	MapRAP          MappingStrategy = "rap"
	MapDataParallel MappingStrategy = "dp"
	MapDataLocality MappingStrategy = "dl"
)

// BuildOptions configures the online optimization pass, including the
// Figure 10 ablation switches.
type BuildOptions struct {
	Strategy MappingStrategy // default MapRAP
	// NoFusion disables horizontal fusion ("RAP w/o fusion").
	NoFusion bool
	// NoSharding disables resource-aware kernel sharding.
	NoSharding bool
	// NoInterleave disables §6.3 inter-batch workload interleaving.
	NoInterleave bool
	// SequentialPreproc fully exposes preprocessing (Sequential
	// baseline semantics); plans are still built.
	SequentialPreproc bool
	// NaiveSchedule skips Algorithm 1: kernels launch back-to-back from
	// the iteration start without capacity awareness (the handcrafted
	// stream/MPS baselines of §8.1).
	NaiveSchedule bool
	// PreprocPriority is the simulator priority of preprocessing
	// kernels (training runs at 1). RAP and MPS co-run at equal footing
	// under fair sharing; the stream baseline uses a low-priority
	// stream (0) under PrioritySpace.
	PreprocPriority int
	// FusionMaxNodes caps the MILP search (0 = auto).
	FusionMaxNodes int
}

// Framework orchestrates the offline and online passes of Figure 4.
type Framework struct {
	W       *Workload
	Cluster gpusim.ClusterConfig

	pred *costmodel.Predictor

	// newCostModel builds the per-GPU cost model; a seam for tests that
	// need a cost model failing on specific candidates.
	newCostModel func(caps []costmodel.StageCapacity) (*costmodel.CostModel, error)

	// solves is the fusion-solve memo (DESIGN.md §8). A hit returns
	// exactly what the solve would have, so it never changes plan
	// contents.
	solves *fusion.SolveCache
}

// New creates a framework for a workload on a cluster.
func New(w *Workload, cluster gpusim.ClusterConfig) *Framework {
	f := &Framework{
		W:       w,
		Cluster: cluster.WithDefaults(),
		pred:    costmodel.AnalyticPredictor(),
		solves:  fusion.NewSolveCache(),
	}
	f.newCostModel = func(caps []costmodel.StageCapacity) (*costmodel.CostModel, error) {
		return costmodel.NewCostModel(f.pred, caps)
	}
	return f
}

// OfflineTrainPredictor runs the offline pass (Figure 4 step 1):
// collect kernel latencies and train the per-category GBDT predictor.
// Without this call the framework falls back to the analytic model.
//
//rap:deterministic
func (f *Framework) OfflineTrainPredictor(samples int, seed int64) (map[string]float64, error) {
	if samples <= 0 {
		samples = 4000
	}
	ds := costmodel.CollectTrainingData(samples, seed)
	train, eval := ds.Split(0.9, seed)
	pred, err := costmodel.TrainPredictor(train, gbdt.Config{NumTrees: 120, MaxDepth: 6, LearningRate: 0.12})
	if err != nil {
		return nil, err
	}
	f.pred = pred
	return pred.Accuracy(eval, 0.10), nil
}

// ExecPlan is the searched co-running plan: everything needed to run
// (or code-generate) the pipelined execution.
type ExecPlan struct {
	Workload *Workload
	Cluster  gpusim.ClusterConfig
	Opts     BuildOptions

	Placement  dlrm.Placement
	Mapping    *mapping.Result
	Capacities [][]costmodel.StageCapacity
	Fusions    []*fusion.Plan
	Schedules  []*sched.Schedule
	Work       []sched.GPUWork

	// PredictedExposedUs is the cost model's per-GPU LΔ estimate.
	PredictedExposedUs []float64
}

// TotalPredictedExposed returns the worst per-GPU predicted exposure.
func (p *ExecPlan) TotalPredictedExposed() float64 {
	worst := 0.0
	for _, v := range p.PredictedExposedUs {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// estimateCapacities runs the step-2 per-GPU capacity profiling.
func (f *Framework) estimateCapacities(pl dlrm.Placement) ([][]costmodel.StageCapacity, error) {
	caps := make([][]costmodel.StageCapacity, f.Cluster.NumGPUs)
	for g := range caps {
		c, err := costmodel.EstimateCapacities(f.W.Model, pl, g, f.Cluster)
		if err != nil {
			return nil, err
		}
		caps[g] = c
	}
	return caps, nil
}

// BuildPlan runs the online pass (Figure 4 steps 2-3): estimate
// overlapping capacity, map the preprocessing graphs, fuse, and search
// the co-running schedule.
//
//rap:deterministic
func (f *Framework) BuildPlan(opts BuildOptions) (*ExecPlan, error) {
	if opts.Strategy == "" {
		opts.Strategy = MapRAP
	}
	if err := f.Cluster.Validate(); err != nil {
		return nil, err
	}
	n := f.Cluster.NumGPUs
	pl := dlrm.PlaceTables(f.W.Model.TableSizes, n)

	// Step 2: per-GPU overlapping-capacity profiles.
	caps, err := f.estimateCapacities(pl)
	if err != nil {
		return nil, err
	}

	// Step 3a: inter-GPU graph mapping. Candidate mappings are scored
	// the way §7.2 prescribes: run the intra-GPU co-running schedule
	// (Algorithm 1, with the level-greedy fusion) for the candidate
	// assignment and take the cost model's exposed latency plus the
	// communication cost of the move. The level planner validates the
	// plan's graphs once, so a candidate costs only its kernel fold
	// (ScorePlan: no op IDs or kernel names), and CoRunExposed returns
	// the exposed latency without building the schedule it would throw
	// away. A
	// candidate that fails to score records the first error for
	// BuildPlan to return — an unscorable candidate means the search
	// itself is compromised, not just that one move is unattractive.
	levels, err := fusion.NewLevelPlanner(f.W.Plan.Graphs)
	if err != nil {
		return nil, err
	}
	var costErr error
	fail := func(stage string, gpu int, err error) float64 {
		if costErr == nil {
			costErr = fmt.Errorf("rap: scoring mapping candidate on gpu %d: %s: %w", gpu, stage, err)
		}
		return 1e18
	}
	cost := func(gpu int, items []mapping.Assign, commBytes float64) float64 {
		sg := make([]fusion.ScaledGraph, len(items))
		for i, a := range items {
			sg[i] = fusion.ScaledGraph{Graph: a.Graph, Shape: a.Shape}
		}
		var fp *fusion.Plan
		var err error
		if opts.NoFusion {
			fp, err = fusion.PlanFusionScaled(sg, fusion.Options{Disable: true})
		} else {
			fp, err = levels.ScorePlan(sg)
		}
		if err != nil {
			return fail("greedy fusion", gpu, err)
		}
		cm, err := f.newCostModel(caps[gpu])
		if err != nil {
			return fail("cost model", gpu, err)
		}
		exposed, err := sched.CoRunExposed(fp, cm, sched.Options{DisableSharding: opts.NoSharding})
		if err != nil {
			return fail("co-run schedule", gpu, err)
		}
		return exposed + commBytes*ScatterInefficiency/(f.Cluster.LinkGBs*1e3)
	}
	mcfg := mapping.Config{
		Plan:        f.W.Plan,
		Placement:   pl,
		PerGPUBatch: f.W.Model.BatchSize,
		LinkGBs:     f.Cluster.LinkGBs,
		Cost:        cost,
	}
	var mapped *mapping.Result
	switch opts.Strategy {
	case MapRAP:
		mapped, err = mapping.RAPSearch(mcfg)
	case MapDataParallel:
		mapped, err = mapping.DataParallel(mcfg)
	case MapDataLocality:
		mapped, err = mapping.DataLocality(mcfg)
	default:
		return nil, fmt.Errorf("rap: unknown mapping strategy %q", opts.Strategy)
	}
	if costErr != nil {
		return nil, costErr
	}
	if err != nil {
		return nil, err
	}

	// Step 3b: per-GPU fusion + co-run schedule.
	plan := &ExecPlan{
		Workload:   f.W,
		Cluster:    f.Cluster,
		Opts:       opts,
		Placement:  pl,
		Mapping:    mapped,
		Capacities: caps,
		Fusions:    make([]*fusion.Plan, n),
		Schedules:  make([]*sched.Schedule, n),
		Work:       make([]sched.GPUWork, n),
	}
	plan.PredictedExposedUs = make([]float64, n)

	// The per-GPU problems are independent, so the lowering runs one
	// goroutine per GPU.
	lower := func(g int) error {
		items := make([]fusion.ScaledGraph, len(mapped.PerGPU[g]))
		for i, a := range mapped.PerGPU[g] {
			items[i] = fusion.ScaledGraph{Graph: a.Graph, Shape: a.Shape}
		}
		fp, err := fusion.PlanFusionScaled(items, fusion.Options{
			Disable:    opts.NoFusion,
			MaxNodes:   opts.FusionMaxNodes,
			SolveCache: f.solves,
		})
		if err != nil {
			return err
		}
		plan.Fusions[g] = fp
		cm, err := f.newCostModel(caps[g])
		if err != nil {
			return err
		}
		var s *sched.Schedule
		if opts.NaiveSchedule {
			s = sched.SequentialSchedule(fp.Kernels(), len(caps[g]))
			s.PredictedExposed = cm.ExposedLatencyClamped(fp.Kernels())
		} else {
			s, err = sched.CoRunSchedule(fp, cm, sched.Options{DisableSharding: opts.NoSharding})
			if err != nil {
				return err
			}
		}
		plan.Schedules[g] = s
		plan.PredictedExposedUs[g] = s.PredictedExposed
		plan.Work[g] = sched.GPUWork{
			Schedule:       s,
			InputCommBytes: mapped.CommBytes[g] * ScatterInefficiency,
			PrepBytes:      rawInputBytes(mapped.PerGPU[g]),
			CPUPrepUs:      hostPrepUs(s),
		}
		return nil
	}
	// Graphs are shared across GPUs and Graph.Deps is built lazily;
	// warm it up front so the concurrent lowerings only read.
	for _, gr := range f.W.Plan.Graphs {
		gr.Deps()
	}
	lowerErrs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lowerErrs[g] = lower(g)
		}(g)
	}
	wg.Wait()
	for _, err := range lowerErrs {
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// ScatterInefficiency converts mapping-induced input-communication
// volume into effective wire time: preprocessed ids move as many small
// per-feature messages interleaved with training collectives, achieving
// a fraction of NVLink peak (the reason batch-parallel mapping's input
// communication sits so visibly on the critical path in Figure 12).
const ScatterInefficiency = 8.0

// HostCores is the host CPU pool of one node of the paper's testbed
// (DGX-class); it bounds the TorchArrow baseline's scaling.
const HostCores = 48

// rawInputBytes estimates the host-to-device volume of one batch's raw
// inputs for a GPU's assignment.
func rawInputBytes(items []mapping.Assign) float64 {
	total := 0.0
	for _, a := range items {
		if len(a.Graph.Outputs) > 0 {
			total += float64(a.Shape.Samples) * a.Shape.AvgListLen * 8
		} else {
			total += float64(a.Shape.Samples) * 4
		}
	}
	return total
}

// hostPrepUs models host-side data preparation (allocation, batching):
// a base cost plus a per-kernel share.
func hostPrepUs(s *sched.Schedule) float64 {
	return 20 + 0.5*float64(s.TotalKernels())
}

// Execute simulates the pipelined plan for the given iteration count.
//
//rap:deterministic
func (f *Framework) Execute(p *ExecPlan, iterations int) (*sched.PipelineStats, error) {
	return f.ExecuteTopo(p, iterations, nil, nil)
}

// ExecuteTopo is the most general execution entry point: the plan runs
// on a cluster whose GPUs are grouped by the given hierarchical
// topology (nil for flat), with each node's inter-node fabric link
// scaled for the whole run by fabricScale (sched.PipelineOptions.
// FabricScale; nil for uncongested). The topology is an
// execution-time argument rather than a BuildOptions field on purpose:
// a plan built once can be simulated on any fleet slice (the cluster
// simulator runs one plan per workload shape across many node-spanning
// allocations).
//
//rap:deterministic
func (f *Framework) ExecuteTopo(p *ExecPlan, iterations int, tp *topo.Topology, fabricScale []float64) (*sched.PipelineStats, error) {
	streams := 1
	if p.Opts.NaiveSchedule && !p.Opts.SequentialPreproc && p.Opts.PreprocPriority >= 1 {
		// The MPS baseline's preprocessing process runs 8 workers, all
		// issuing kernels concurrently with no resource awareness
		// (§8.1); the CUDA-stream baseline uses a single extra stream.
		streams = 8
	}
	return sched.BuildAndRun(p.Cluster, f.W.Model, p.Placement, p.Work, sched.PipelineOptions{
		Iterations:        iterations,
		Interleave:        !p.Opts.NoInterleave && !p.Opts.SequentialPreproc,
		SequentialPreproc: p.Opts.SequentialPreproc,
		PreprocPriority:   p.Opts.PreprocPriority,
		PreprocStreams:    streams,
		FabricScale:       fabricScale,
		Topology:          tp,
	})
}

// IdealThroughput returns the no-preprocessing upper bound (samples/s):
// training iterations back to back.
func (f *Framework) IdealThroughput() float64 {
	pl := dlrm.PlaceTables(f.W.Model.TableSizes, f.Cluster.NumGPUs)
	iter := f.W.Model.IterationSoloLatency(pl, f.Cluster.LinkGBs)
	if iter <= 0 {
		return 0
	}
	globalBatch := float64(f.W.Model.BatchSize) * float64(f.Cluster.NumGPUs)
	return globalBatch / (iter * 1e-6)
}
