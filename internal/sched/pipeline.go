package sched

import (
	"fmt"
	"math"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
	"rap/internal/preproc"
	"rap/internal/topo"
)

// GPUWork is the per-GPU, per-batch preprocessing workload handed to the
// pipeline builder.
type GPUWork struct {
	// Schedule holds the GPU preprocessing kernels and their stage
	// assignment (nil means no GPU preprocessing on this GPU).
	Schedule *Schedule
	// InputCommBytes is cross-GPU input communication this GPU must
	// perform after preprocessing a batch (non-zero under mappings that
	// violate data locality, e.g. batch/data-parallel mapping).
	InputCommBytes float64
	// PrepBytes is the host-to-device copy volume of one raw batch.
	PrepBytes float64
	// CPUPrepUs is host-side data-preparation time per batch (memory
	// allocation, unpacking) preceding the copy.
	CPUPrepUs float64
	// CPUPreprocUs, when positive, replaces the GPU kernel schedule with
	// CPU-side preprocessing of that duration (the TorchArrow baseline).
	CPUPreprocUs float64
	// CPUWorkers is the host worker count used by CPU ops (default 8,
	// the paper's per-GPU TorchArrow worker count).
	CPUWorkers int
}

func (w GPUWork) workers() int {
	if w.CPUWorkers <= 0 {
		return 8
	}
	return w.CPUWorkers
}

// warmupIters is the number of iterations excluded from steady-state
// measurement. It is clamped to Iterations-1, so a single-iteration run
// has no warmup and the steady-state window falls back to the full run.
const warmupIters = 2

// PipelineOptions controls pipeline construction.
type PipelineOptions struct {
	Iterations int
	// Interleave enables §6.3 inter-batch workload interleaving: the
	// data preparation of batch n+1 overlaps the preprocessing kernels
	// of batch n instead of serializing before its own kernels.
	Interleave bool
	// SequentialPreproc exposes all preprocessing: kernels run between
	// iterations instead of co-running (the Sequential baseline).
	SequentialPreproc bool
	// PreprocPriority is the simulator priority of preprocessing kernels
	// (training runs at priority 1). Equal priority (1) models MPS-style
	// fair sharing; lower (0) models low-priority CUDA streams.
	PreprocPriority int
	// PreprocStreams is the number of concurrent preprocessing streams
	// (default 1). The handcrafted baselines launch kernels from several
	// worker streams at once, which is exactly what creates their GPU
	// resource contention (§8.2); kernels are distributed round-robin,
	// a slight over-approximation of the baselines' parallelism.
	PreprocStreams int
	// FabricScale[n] is the remaining capacity fraction, in (0,1], of
	// topology node n's inter-node fabric link for the whole run — the
	// congestion co-resident fleet tenants impose. Entries below 1 need
	// a multi-node Topology; missing entries and entries of 1 leave the
	// link untouched, so nil is bit-identical to an uncongested run.
	FabricScale []float64
	// Topology, when non-nil, groups the cluster's GPUs into NVSwitch
	// nodes behind an oversubscribed inter-node fabric (internal/topo):
	// cross-node transfers and the cross-node share of collectives
	// additionally charge per-node fabric links. Nil — or a flat
	// topology — leaves the simulation bit-identical to an
	// untopologized run.
	Topology *topo.Topology
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Iterations <= 0 {
		o.Iterations = 8
	}
	if o.PreprocStreams <= 0 {
		o.PreprocStreams = 1
	}
	return o
}

// PipelineStats is the outcome of a pipelined training run.
type PipelineStats struct {
	Result *gpusim.Result
	// IterEnds[i] is the completion time of iteration i (µs).
	IterEnds []float64
	// SteadyIterLatency is the mean per-iteration latency after warmup.
	SteadyIterLatency float64
	// Throughput is global samples per second after warmup.
	Throughput float64
	// TrainOnlyLatency is the analytic contention-free iteration
	// latency, for exposed-overhead accounting.
	TrainOnlyLatency float64
}

// BuildAndRun constructs the full pipelined DLRM-training +
// preprocessing DAG and simulates it. work must have one entry per GPU.
func BuildAndRun(cluster gpusim.ClusterConfig, cfg dlrm.Config, pl dlrm.Placement, work []GPUWork, opts PipelineOptions) (*PipelineStats, error) {
	cluster = cluster.WithDefaults()
	opts = opts.withDefaults()
	if len(work) != cluster.NumGPUs {
		return nil, fmt.Errorf("sched: %d work entries for %d GPUs", len(work), cluster.NumGPUs)
	}
	if pl.NumGPUs != cluster.NumGPUs {
		return nil, fmt.Errorf("sched: placement has %d GPUs, cluster %d", pl.NumGPUs, cluster.NumGPUs)
	}
	b, err := newPipelineBuilder(cluster, cfg, pl, work, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.Iterations; i++ {
		if err := b.addIteration(i); err != nil {
			return nil, err
		}
	}
	res, err := b.sim.Run()
	if err != nil {
		return nil, err
	}
	stats := &PipelineStats{
		Result:           res,
		TrainOnlyLatency: cfg.IterationSoloLatency(pl, cluster.LinkGBs),
	}
	for i := range b.handles {
		stats.IterEnds = append(stats.IterEnds, res.OpByID(b.handles[i].End).End)
	}
	// Steady-state window: everything after the warmup iterations. With
	// no warmup (Iterations == 1) the window is the whole run measured
	// from t=0.
	warmup := min(warmupIters, opts.Iterations-1)
	steadyIters := opts.Iterations - warmup
	warmupEnd := 0.0
	if warmup > 0 {
		warmupEnd = stats.IterEnds[warmup-1]
	}
	steadyTime := stats.IterEnds[opts.Iterations-1] - warmupEnd
	if steadyIters > 0 && steadyTime > 0 {
		stats.SteadyIterLatency = steadyTime / float64(steadyIters)
		globalBatch := float64(cfg.BatchSize) * float64(cluster.NumGPUs)
		stats.Throughput = globalBatch * float64(steadyIters) / (steadyTime * 1e-6)
	}
	return stats, nil
}

// gpuPlan caches what every batch of one GPU shares: its simulator
// streams and its schedule lowered to simulator kernels. Deriving
// them once per run instead of once per (iteration × GPU) keeps kernel
// lowering out of DAG construction.
type gpuPlan struct {
	prep   gpusim.Stream // data-preparation stream (host prep + H2D copy)
	pre    gpusim.Stream // preprocessing kernel stream
	cpupre gpusim.Stream // CPU-preprocessing stream (TorchArrow/hybrid mode)
	// kernel holds the round-robin kernel streams when PreprocStreams>1.
	kernel []gpusim.Stream
	// perStage[s] and overflow are Schedule.PerStage[s] and
	// Schedule.Overflow lowered by KernelSpec.Kernel.
	perStage [][]loweredKernel
	overflow []loweredKernel
	// names lists the distinct kernel names of perStage and overflow.
	names []string
}

// loweredKernel is a simulator kernel with the index of its name in
// gpuPlan.names, so that a batch builds each prefixed op name once per
// distinct name rather than once per kernel.
type loweredKernel struct {
	gpusim.Kernel
	nameID int
}

// lower lowers kernel specs to simulator kernels, adding names it has
// not seen (ids maps each name to its index in gp.names).
func (gp *gpuPlan) lower(specs []preproc.KernelSpec, ids map[string]int) []loweredKernel {
	ks := make([]loweredKernel, len(specs))
	for i, spec := range specs {
		k := spec.Kernel()
		id, ok := ids[k.Name]
		if !ok {
			id = len(gp.names)
			ids[k.Name] = id
			gp.names = append(gp.names, k.Name)
		}
		ks[i] = loweredKernel{Kernel: k, nameID: id}
	}
	return ks
}

// pipelineBuilder accumulates the pipelined training DAG for one run.
// It precomputes every structure identical across iterations — the
// per-GPU training-stage template (via dlrm.IterTemplate) and the
// per-GPU gpuPlan — so adding iteration i derives only what actually
// depends on i. Callers that replay many pipelines per decision
// (capacity estimation, baselines, the experiment grids) construct
// hundreds of these DAGs per call, which made the per-iteration
// re-derivation measurable.
type pipelineBuilder struct {
	sim     *gpusim.Sim
	tmpl    *dlrm.IterTemplate
	work    []GPUWork
	opts    PipelineOptions
	gpus    []gpuPlan
	handles []dlrm.IterHandle
	// deps is the kernel-dependency buffer, reused across kernels:
	// WithDeps copies its ids when the op is added.
	deps []gpusim.OpID
}

func newPipelineBuilder(cluster gpusim.ClusterConfig, cfg dlrm.Config, pl dlrm.Placement, work []GPUWork, opts PipelineOptions) (*pipelineBuilder, error) {
	tmpl, err := cfg.NewIterTemplate(pl)
	if err != nil {
		return nil, err
	}
	sim := gpusim.NewSim(cluster)
	// The topology must be installed before the first op: fabric demands
	// are resolved at add time.
	if err := sim.SetTopology(opts.Topology); err != nil {
		return nil, err
	}
	if err := sim.SetFabricScale(opts.FabricScale); err != nil {
		return nil, err
	}
	b := &pipelineBuilder{
		sim:  sim,
		tmpl: tmpl,
		work: work,
		opts: opts,
		gpus: make([]gpuPlan, cluster.NumGPUs),
	}
	for g := range b.gpus {
		gp := gpuPlan{prep: sim.NewStream(), pre: sim.NewStream(), cpupre: sim.NewStream()}
		if opts.PreprocStreams > 1 {
			gp.kernel = make([]gpusim.Stream, opts.PreprocStreams)
			for i := range gp.kernel {
				gp.kernel[i] = sim.NewStream()
			}
		}
		if sch := work[g].Schedule; sch != nil {
			ids := map[string]int{}
			gp.perStage = make([][]loweredKernel, len(sch.PerStage))
			for s, specs := range sch.PerStage {
				gp.perStage[s] = gp.lower(specs, ids)
			}
			gp.overflow = gp.lower(sch.Overflow, ids)
		}
		b.gpus[g] = gp
	}
	// gpusim indexes ops by int32, so a run of more ops is refused
	// before anything is sized for it.
	iterOps := b.iterOps()
	if opts.Iterations > math.MaxInt32/iterOps {
		return nil, fmt.Errorf("sched: %d iterations of %d ops each exceed the %d ops a simulation holds",
			opts.Iterations, iterOps, math.MaxInt32)
	}
	// Size the op store once for the whole run: every iteration adds
	// iterOps ops, with about two demands and two dependencies each.
	n := opts.Iterations * iterOps
	sim.Grow(n, 2*n, 2*n)
	b.handles = make([]dlrm.IterHandle, 0, opts.Iterations)
	return b, nil
}

// iterOps returns the number of ops addIteration adds: each GPU's
// training stages and batch preprocessing, and the iteration's end
// barrier.
func (b *pipelineBuilder) iterOps() int {
	n := 1
	for g, gp := range b.gpus {
		w := b.work[g]
		n += dlrm.NumStages + len(gp.overflow)
		for _, ks := range gp.perStage {
			n += len(ks)
		}
		for _, on := range []bool{w.CPUPrepUs > 0, w.PrepBytes > 0, w.CPUPreprocUs > 0, w.InputCommBytes > 0} {
			if on {
				n++
			}
		}
	}
	return n
}

// addIteration appends iteration i (batch preprocessing on every GPU
// plus the training stages consuming it) to the DAG.
func (b *pipelineBuilder) addIteration(i int) error {
	n := b.sim.Config().NumGPUs
	extra := make([][]gpusim.OpID, n)
	for g := 0; g < n; g++ {
		gates, err := b.addBatchPreproc(g, i)
		if err != nil {
			return err
		}
		extra[g] = append(extra[g], gates...)
		if i > 0 {
			extra[g] = append(extra[g], b.handles[i-1].End)
		}
	}
	h, err := b.tmpl.AddIteration(b.sim, i, extra)
	if err != nil {
		return err
	}
	b.handles = append(b.handles, h)
	return nil
}

// addBatchPreproc schedules the preprocessing of batch i on GPU g and
// returns the ops the consuming iteration must wait for.
//
// Batch i is consumed by iteration i; its preprocessing co-runs with
// iteration i-1 (anchored to that iteration's stages). Data preparation
// for batch i serializes before batch i's kernels without interleaving,
// or overlaps batch i-1's kernels (anchored one iteration earlier) with
// §6.3 interleaving.
func (b *pipelineBuilder) addBatchPreproc(g, i int) ([]gpusim.OpID, error) {
	sim, w, opts := b.sim, b.work[g], b.opts
	handles := b.handles
	gp := &b.gpus[g]
	prefix := fmt.Sprintf("b%d/g%d/", i, g)
	nextStream := 0
	kernelStream := func() gpusim.Stream {
		if opts.PreprocStreams <= 1 {
			return gp.pre
		}
		s := gp.kernel[nextStream]
		nextStream = (nextStream + 1) % opts.PreprocStreams
		return s
	}
	last := gpusim.OpID(-1)

	// Anchors: kernels of batch i align with iteration i-1; interleaved
	// data preparation aligns with iteration i-2.
	kernelAnchor := func(stage int) []gpusim.OpID {
		if i == 0 {
			return nil
		}
		return handles[i-1].StageStartDeps[g][stage]
	}
	prepAnchor := func() []gpusim.OpID {
		if opts.Interleave {
			if i < 2 {
				return nil
			}
			return []gpusim.OpID{handles[i-2].End}
		}
		if i == 0 {
			return nil
		}
		return handles[i-1].StageStartDeps[g][0]
	}

	// Data preparation: host-side prep then H2D copy.
	var prepOps []gpusim.OpID
	if w.CPUPrepUs > 0 {
		id := sim.AddCPU(prefix+"prep", w.CPUPrepUs, w.workers(),
			gpusim.WithStream(gp.prep), gpusim.WithDeps(prepAnchor()...))
		prepOps = append(prepOps, id)
		last = id
	}
	if w.PrepBytes > 0 {
		id := sim.AddHostCopy(prefix+"h2d", g, w.PrepBytes,
			gpusim.WithStream(gp.prep), gpusim.WithDeps(prepAnchor()...))
		prepOps = append(prepOps, id)
		last = id
	}

	// CPU preprocessing: alone (TorchArrow) or concurrent with the GPU
	// kernels (hybrid §10 mode). It runs on its own stream so it never
	// serializes behind GPU kernels.
	var gates []gpusim.OpID
	if w.CPUPreprocUs > 0 {
		deps := append(b.deps[:0], prepOps...)
		if i > 0 {
			// Pipeline the CPU work against the previous iteration.
			deps = append(deps, handles[i-1].StageStartDeps[g][0]...)
		}
		b.deps = deps
		id := sim.AddCPU(prefix+"cpu_preproc", w.CPUPreprocUs, w.workers(),
			gpusim.WithStream(gp.cpupre), gpusim.WithDeps(deps...))
		gates = append(gates, id)
		if w.Schedule == nil {
			return append(gates, b.finishCommGates(g, id, prefix)...), nil
		}
	}

	if w.Schedule == nil {
		// No GPU kernels and no CPU preprocessing on this GPU — but
		// mapping-induced input communication must still be scheduled
		// (and gate the consuming iteration): a no-preproc GPU under a
		// locality-violating mapping still receives its inputs over the
		// fabric.
		return append(gates, b.finishCommGates(g, last, prefix)...), nil
	}

	// GPU preprocessing kernels, serialized on the preprocessing stream,
	// each anchored to its assigned training stage. Kernels sharing a
	// name share the batch's prefixed op name: names[id] is the prefix
	// plus gp.names[id], or "" until the batch's first kernel of that name.
	names := make([]string, len(gp.names))
	addKernel := func(k loweredKernel, deps []gpusim.OpID) gpusim.OpID {
		if names[k.nameID] == "" {
			names[k.nameID] = prefix + gp.names[k.nameID]
		}
		k.Name = names[k.nameID]
		return sim.AddKernel(g, k.Kernel,
			gpusim.WithStream(kernelStream()),
			gpusim.WithDeps(deps...),
			gpusim.WithPriority(opts.PreprocPriority))
	}
	// With one preprocessing stream, a stage's (or the overflow's) later
	// kernels depend only on their stream predecessor: it started after
	// the same anchor and data-preparation ops had finished, so listing
	// them again would make the kernel ready at the same event and in
	// the same start order, at the cost of the extra edges.
	implied := func(j int) bool { return j > 0 && opts.PreprocStreams <= 1 }
	for s, ks := range gp.perStage {
		for j, k := range ks {
			deps := b.deps[:0]
			if !implied(j) {
				if opts.SequentialPreproc {
					if i > 0 {
						deps = append(deps, handles[i-1].End)
					}
				} else {
					deps = append(deps, kernelAnchor(s)...)
				}
				deps = append(deps, prepOps...)
			}
			b.deps = deps
			last = addKernel(k, deps)
		}
	}
	numStages := len(gp.perStage)
	for j, k := range gp.overflow {
		deps := b.deps[:0]
		if !implied(j) {
			if opts.SequentialPreproc && i > 0 {
				deps = append(deps, handles[i-1].End)
			} else if !opts.SequentialPreproc && numStages > 0 {
				deps = append(deps, kernelAnchor(numStages-1)...)
			}
			deps = append(deps, prepOps...)
		}
		b.deps = deps
		last = addKernel(k, deps)
	}
	return append(gates, b.finishCommGates(g, last, prefix)...), nil
}

// finishCommGates appends the mapping-induced input communication after
// the batch's preprocessing, if any, returning the op(s) that gate the
// consuming iteration.
func (b *pipelineBuilder) finishCommGates(g int, last gpusim.OpID, prefix string) []gpusim.OpID {
	w := b.work[g]
	if w.InputCommBytes <= 0 {
		if last < 0 {
			return nil
		}
		return []gpusim.OpID{last}
	}
	var deps []gpusim.OpID
	if last >= 0 {
		deps = append(deps, last)
	}
	id := b.sim.AddLinkBusy(prefix+"input_comm", g, w.InputCommBytes,
		gpusim.WithStream(b.gpus[g].pre), gpusim.WithDeps(deps...))
	return []gpusim.OpID{id}
}
