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

	// lowered is Schedule lowered to simulator kernels by LowerWork,
	// nil until then; BuildAndRun lowers a nil one per run.
	lowered *loweredSchedule
}

// LowerWork returns a copy of work in which each GPU's schedule is
// lowered to simulator kernels and op names once, so that every
// BuildAndRun of the copy reuses the lowering instead of repeating it
// per run. The schedules must not change afterwards, nor the entries
// move: an entry's op names carry its GPU. Runs of the copy and of
// work are the same bits.
func LowerWork(work []GPUWork) []GPUWork {
	out := append([]GPUWork(nil), work...)
	for g := range out {
		if sch := out[g].Schedule; sch != nil {
			out[g].lowered = lowerSchedule(sch, g)
		}
	}
	return out
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
	if err := b.addIterations(); err != nil {
		return nil, err
	}
	res, err := b.sim.Run()
	if err != nil {
		return nil, err
	}
	stats := &PipelineStats{
		Result:           res,
		IterEnds:         make([]float64, len(b.handles)),
		TrainOnlyLatency: cfg.IterationSoloLatency(pl, cluster.LinkGBs),
	}
	for i, h := range b.handles {
		stats.IterEnds[i] = b.sim.OpEnd(h.End)
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
// streams and its schedule lowered to simulator kernels and op names.
// Deriving them once per run (or, through LowerWork, once per plan)
// instead of once per (iteration × GPU) keeps kernel lowering and name
// building out of DAG construction.
type gpuPlan struct {
	prep   gpusim.Stream // data-preparation stream (host prep + H2D copy)
	pre    gpusim.Stream // preprocessing kernel stream
	cpupre gpusim.Stream // CPU-preprocessing stream (TorchArrow)
	// kernel holds the round-robin kernel streams when PreprocStreams>1.
	kernel []gpusim.Stream
	*loweredSchedule
}

// loweredSchedule is GPU g's Schedule lowered to simulator kernels:
// perStage[s] and overflow are Schedule.PerStage[s] and
// Schedule.Overflow lowered by KernelSpec.Kernel, and names and tags
// list their distinct op names, "b#/g<g>/" and the kernel's name, and
// tags. prepName, h2dName, cpuName and commName name the batch's other
// ops; batch i reads "b<i>/g<g>/..." (gpusim.Sim.SetIteration). Runs
// share it read-only.
type loweredSchedule struct {
	perStage                             [][]loweredKernel
	overflow                             []loweredKernel
	names, tags                          []string
	prepName, h2dName, cpuName, commName string
}

// loweredKernel is a simulator kernel whose name and tag are indices
// into loweredSchedule.names and tags, so that kernels of one name
// share one op name, and a lowering kept with a plan holds no pointer
// for the garbage collector to scan (TestLoweredKernelPointerFree).
// Kernel.Warps, which the simulator does not read, is dropped.
type loweredKernel struct {
	work, overhead float64
	demand         gpusim.Demand
	nameID, tagID  int32
}

// lowerSchedule lowers GPU g's schedule, which is nil for a GPU
// without preprocessing kernels.
func lowerSchedule(sch *Schedule, g int) *loweredSchedule {
	prefix := fmt.Sprintf("b#/g%d/", g)
	ls := &loweredSchedule{prepName: prefix + "prep", h2dName: prefix + "h2d",
		cpuName: prefix + "cpu_preproc", commName: prefix + "input_comm"}
	if sch == nil {
		return ls
	}
	ls.perStage = make([][]loweredKernel, len(sch.PerStage))
	names, tags := map[string]int32{}, map[string]int32{}
	for s, specs := range sch.PerStage {
		ls.perStage[s] = ls.lower(specs, names, tags)
	}
	ls.overflow = ls.lower(sch.Overflow, names, tags)
	for id, name := range ls.names {
		ls.names[id] = prefix + name
	}
	return ls
}

// lower lowers kernel specs to simulator kernels, adding the names and
// tags it has not seen (names and tags map each to its index in
// ls.names or ls.tags).
func (ls *loweredSchedule) lower(specs []preproc.KernelSpec, names, tags map[string]int32) []loweredKernel {
	ks := make([]loweredKernel, len(specs))
	for i, spec := range specs {
		k := spec.Kernel()
		ks[i] = loweredKernel{work: k.Work, overhead: k.LaunchOverhead, demand: k.Demand,
			nameID: intern(&ls.names, names, k.Name), tagID: intern(&ls.tags, tags, k.Tag)}
	}
	return ks
}

// intern returns s's index in list, appending it if ids, which maps
// list's strings to their indices, lacks it.
func intern(list *[]string, ids map[string]int32, s string) int32 {
	id, ok := ids[s]
	if !ok {
		id = int32(len(*list))
		ids[s] = id
		*list = append(*list, s)
	}
	return id
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
		gp.loweredSchedule = work[g].lowered
		if gp.loweredSchedule == nil {
			gp.loweredSchedule = lowerSchedule(work[g].Schedule, g)
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
	// iterOps ops, and every built one about two dependencies and two
	// demands per op, a few more demands on a multi-node topology
	// (stamped iterations store neither).
	n := opts.Iterations * iterOps
	built := min(opts.Iterations, stampFrom) * iterOps
	sim.Grow(built, n-built, 2*built+built/8, 2*built)
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

// addIterations appends every iteration of the run to the DAG: it
// builds the first stampFrom and makes each later one a copy of the one
// before, shifted by its op count.
func (b *pipelineBuilder) addIterations() error {
	for i := 0; i < b.opts.Iterations; i++ {
		if i < stampFrom {
			if err := b.addIteration(i); err != nil {
				return err
			}
			continue
		}
		last := len(b.handles) - 1
		n := int(b.handles[last].End - b.handles[last-1].End)
		b.sim.Stamp(n)
		b.handles = append(b.handles, b.handles[last].Shift(n))
	}
	return nil
}

// stampFrom is the first iteration BuildAndRun stamps (gpusim.Sim.Stamp)
// instead of building. It is the first whose every anchor has a
// counterpart exactly one iteration back: handles[i-1], handles[i-2].End
// under interleaving (which iteration 1's data preparation lacks), and
// each stream's last op. So iteration i, for i >= stampFrom, is
// iteration i-1 shifted by one iteration's op count, op names included
// (gpusim.Sim.SetIteration).
const stampFrom = 3

// addIteration appends iteration i (batch preprocessing on every GPU
// plus the training stages consuming it) to the DAG, as the Sim's
// iteration i.
func (b *pipelineBuilder) addIteration(i int) error {
	n := b.sim.Config().NumGPUs
	b.sim.SetIteration(i)
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
		id := sim.AddCPU(gp.prepName, w.CPUPrepUs, w.workers(),
			gpusim.WithStream(gp.prep), gpusim.WithDeps(prepAnchor()...))
		prepOps = append(prepOps, id)
		last = id
	}
	if w.PrepBytes > 0 {
		id := sim.AddHostCopy(gp.h2dName, g, w.PrepBytes,
			gpusim.WithStream(gp.prep), gpusim.WithDeps(prepAnchor()...))
		prepOps = append(prepOps, id)
		last = id
	}

	// CPU preprocessing (the TorchArrow baseline). It runs on its own
	// stream so it never serializes behind GPU kernels.
	var gates []gpusim.OpID
	if w.CPUPreprocUs > 0 {
		deps := append(b.deps[:0], prepOps...)
		if i > 0 {
			// Pipeline the CPU work against the previous iteration.
			deps = append(deps, handles[i-1].StageStartDeps[g][0]...)
		}
		b.deps = deps
		id := sim.AddCPU(gp.cpuName, w.CPUPreprocUs, w.workers(),
			gpusim.WithStream(gp.cpupre), gpusim.WithDeps(deps...))
		gates = append(gates, id)
		if w.Schedule == nil {
			return append(gates, b.finishCommGates(g, id)...), nil
		}
	}

	if w.Schedule == nil {
		// No GPU kernels and no CPU preprocessing on this GPU — but
		// mapping-induced input communication must still be scheduled
		// (and gate the consuming iteration): a no-preproc GPU under a
		// locality-violating mapping still receives its inputs over the
		// fabric.
		return append(gates, b.finishCommGates(g, last)...), nil
	}

	// GPU preprocessing kernels, serialized on the preprocessing stream,
	// each anchored to its assigned training stage.
	addKernel := func(k loweredKernel, deps []gpusim.OpID) gpusim.OpID {
		return sim.AddKernel(g, gpusim.Kernel{Name: gp.names[k.nameID], Work: k.work, Demand: k.demand,
			LaunchOverhead: k.overhead, Tag: gp.tags[k.tagID]},
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
	return append(gates, b.finishCommGates(g, last)...), nil
}

// finishCommGates appends the mapping-induced input communication after
// the batch's preprocessing, if any, returning the op(s) that gate the
// consuming iteration.
func (b *pipelineBuilder) finishCommGates(g int, last gpusim.OpID) []gpusim.OpID {
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
	id := b.sim.AddLinkBusy(b.gpus[g].commName, g, w.InputCommBytes,
		gpusim.WithStream(b.gpus[g].pre), gpusim.WithDeps(deps...))
	return []gpusim.OpID{id}
}
