package dlrm

import (
	"fmt"

	"rap/internal/gpusim"
)

// Calibration constants for the simulated A100-class trainer. Absolute
// values are arbitrary; RAP's decisions depend on the relative shape:
// MLP stages are compute-bound (high SM, moderate bandwidth), embedding
// stages are memory-bound (low SM, high bandwidth) — the fluctuation of
// Figure 1(a) that RAP harvests.
const (
	// flopsPerUs is effective full-GPU FLOP throughput per µs.
	flopsPerUs = 2.5e7 //rap:unit flop/us
	// hbmBytesPerUs is effective full-GPU DRAM bandwidth per µs.
	hbmBytesPerUs = 1.5e6 //rap:unit B/us
	// trainLaunchOverhead is the per-stage launch cost (µs); training
	// stages are big fused kernels so this is mostly negligible.
	trainLaunchOverhead = 4.0 //rap:unit us
)

// StageKind distinguishes compute stages from communication stages.
type StageKind int

const (
	// StageCompute runs a GPU kernel.
	StageCompute StageKind = iota
	// StageComm occupies the GPU's NVLink ports.
	StageComm
)

// Stage is one step of a DLRM training iteration on one GPU.
type Stage struct {
	Name string
	Kind StageKind
	// Kernel is set for StageCompute.
	Kernel gpusim.Kernel
	// Bytes is the per-GPU communication volume for StageComm.
	Bytes float64 //rap:unit B
}

// SoloLatency returns the stage's uncontended duration given the link
// bandwidth (GB/s) for comm stages.
//
//rap:unit linkGBs GB/s
//rap:unit return us
func (s Stage) SoloLatency(linkGBs float64) float64 {
	if s.Kind == StageComm {
		return s.Bytes / (linkGBs * 1e3)
	}
	return s.Kernel.SoloLatency()
}

// mlpFlops counts the forward FLOPs of an MLP stack.
//
//rap:unit return flop
func mlpFlops(batch int, dims []int) float64 {
	f := 0.0
	for i := 0; i+1 < len(dims); i++ {
		f += float64(dims[i]) * float64(dims[i+1])
	}
	return 2 * float64(batch) * f
}

// computeStage builds a compute-bound stage from a FLOP count.
//
//rap:unit flops flop
func computeStage(name string, flops, sm, bw float64) Stage {
	return Stage{
		Name: name,
		Kind: StageCompute,
		Kernel: gpusim.Kernel{
			Name:           name,
			Work:           flops / flopsPerUs,
			Demand:         gpusim.Demand{SM: sm, MemBW: bw},
			LaunchOverhead: trainLaunchOverhead,
			Tag:            "train",
		},
	}
}

// memoryStage builds a bandwidth-bound stage from a byte volume.
//
//rap:unit bytes B
func memoryStage(name string, bytes, sm, bw float64) Stage {
	return Stage{
		Name: name,
		Kind: StageCompute,
		Kernel: gpusim.Kernel{
			Name:           name,
			Work:           bytes / hbmBytesPerUs,
			Demand:         gpusim.Demand{SM: sm, MemBW: bw},
			LaunchOverhead: trainLaunchOverhead,
			Tag:            "train",
		},
	}
}

// IterationStages returns the ordered training stages of one iteration
// on GPU g under the given placement. The order follows the hybrid
// parallelism data flow (§2.2): embedding lookup on local tables for the
// global batch, forward all-to-all, bottom MLP (data parallel),
// pairwise interaction, top MLP, the backward mirror, gradient
// all-reduce and the sparse embedding update.
func (c Config) IterationStages(g int, pl Placement) []Stage {
	local := float64(len(pl.LocalTables(g)))
	n := float64(pl.NumGPUs)
	globalBatch := float64(c.BatchSize) * n
	dim := float64(c.EmbeddingDim)
	f := float64(c.InteractionFeatures())

	// Embedding traffic: every lookup reads `pooling` rows of `dim`
	// float32s for every sample of the global batch on each local table.
	lookupBytes := globalBatch * local * c.pooling() * dim * 4
	// Pooled activations exchanged in the all-to-all: one dim-vector per
	// (sample, local table); the remote share leaves the GPU.
	a2aBytes := globalBatch * local * dim * 4
	if n > 1 {
		a2aBytes *= (n - 1) / n
	} else {
		a2aBytes = 0
	}
	botFlops := mlpFlops(c.BatchSize, c.bottomDims())
	topFlops := mlpFlops(c.BatchSize, c.topDims())
	interFlops := float64(c.BatchSize) * f * f * dim
	arBytes := 0.0
	if n > 1 {
		arBytes = 2 * (n - 1) / n * float64(c.MLPParams()) * 4
	}

	return []Stage{
		memoryStage("emb_lookup", lookupBytes, 0.20, 0.90),
		{Name: "a2a_fwd", Kind: StageComm, Bytes: a2aBytes},
		computeStage("bot_fwd", botFlops, 0.70, 0.35),
		computeStage("inter_fwd", interFlops, 0.60, 0.70),
		computeStage("top_fwd", topFlops, 0.72, 0.30),
		computeStage("top_bwd", 2*topFlops, 0.75, 0.35),
		computeStage("inter_bwd", 2*interFlops, 0.60, 0.70),
		computeStage("bot_bwd", 2*botFlops, 0.70, 0.40),
		{Name: "a2a_bwd", Kind: StageComm, Bytes: a2aBytes},
		{Name: "allreduce", Kind: StageComm, Bytes: arBytes},
		memoryStage("emb_update", 2*lookupBytes, 0.25, 0.95),
	}
}

// NumStages is the stage count of every iteration.
const NumStages = 11

// commStageDeps lists, per stage index, whether the stage must wait for
// the previous stage of ALL GPUs (collectives) rather than only its own.
func commStageDeps(i int) bool {
	switch i {
	case 1, 8, 9: // a2a_fwd, a2a_bwd, allreduce
		return true
	default:
		return false
	}
}

// IterHandle exposes the simulator ops of one scheduled iteration.
type IterHandle struct {
	// StageOps[g][s] is the op id of stage s on GPU g.
	StageOps [][]gpusim.OpID
	// StageStartDeps[g][s] are the dependencies that gate stage s on GPU
	// g; a co-running preprocessing kernel assigned to stage s starts
	// alongside it by depending on the same ops.
	StageStartDeps [][][]gpusim.OpID
	// End is a barrier op that completes when the iteration does.
	End gpusim.OpID
}

// Shift returns the handle with every op id moved by n: the handle of
// the iteration gpusim.Sim.Stamp copies from h's ops n further on.
func (h IterHandle) Shift(n int) IterHandle {
	out := IterHandle{
		StageOps:       make([][]gpusim.OpID, len(h.StageOps)),
		StageStartDeps: make([][][]gpusim.OpID, len(h.StageStartDeps)),
		End:            h.End + gpusim.OpID(n),
	}
	shift := func(ids []gpusim.OpID) []gpusim.OpID {
		if len(ids) == 0 {
			return nil
		}
		moved := make([]gpusim.OpID, len(ids))
		for i, id := range ids {
			moved[i] = id + gpusim.OpID(n)
		}
		return moved
	}
	for g, ops := range h.StageOps {
		out.StageOps[g] = shift(ops)
	}
	for g, stages := range h.StageStartDeps {
		out.StageStartDeps[g] = make([][]gpusim.OpID, len(stages))
		for s, deps := range stages {
			out.StageStartDeps[g][s] = shift(deps)
		}
	}
	return out
}

// IterTemplate is the iteration-invariant part of a training DAG: the
// per-GPU stage list, validated and derived once per (Config,
// Placement) pair. Callers that schedule many iterations — or rebuild
// the same pipeline hundreds of times during capacity search — reuse
// the template instead of re-deriving identical stage structure per
// iteration.
type IterTemplate struct {
	numGPUs int
	// stages[g] is the ordered stage list of GPU g, each stage named
	// by its op name "it#/g<g>/<stage>", which iteration i reads as
	// "it<i>/g<g>/<stage>" (gpusim.Sim.SetIteration).
	stages [][]Stage
}

// NewIterTemplate validates cfg and pl and precomputes the per-GPU
// training-stage structure shared by every iteration.
func (c Config) NewIterTemplate(pl Placement) (*IterTemplate, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	n := pl.NumGPUs
	t := &IterTemplate{numGPUs: n, stages: make([][]Stage, n)}
	for g := 0; g < n; g++ {
		t.stages[g] = c.IterationStages(g, pl)
		for s := range t.stages[g] {
			st := &t.stages[g][s]
			st.Name = fmt.Sprintf("it#/g%d/%s", g, st.Name)
			st.Kernel.Name = st.Name
		}
	}
	return t, nil
}

// AddIteration schedules iteration iter from the template into sim, as
// its iteration iter (gpusim.Sim.SetIteration). extraDeps gate the
// iteration start on GPU g (input availability: the preprocessing and
// host-copy ops of the batch this iteration consumes).
func (t *IterTemplate) AddIteration(sim *gpusim.Sim, iter int, extraDeps [][]gpusim.OpID) (IterHandle, error) {
	if sim.Config().NumGPUs != t.numGPUs {
		return IterHandle{}, fmt.Errorf("dlrm: placement has %d GPUs, sim has %d", t.numGPUs, sim.Config().NumGPUs)
	}
	n := t.numGPUs
	h := IterHandle{
		StageOps:       make([][]gpusim.OpID, n),
		StageStartDeps: make([][][]gpusim.OpID, n),
	}
	for g := 0; g < n; g++ {
		h.StageOps[g] = make([]gpusim.OpID, len(t.stages[g]))
		h.StageStartDeps[g] = make([][]gpusim.OpID, len(t.stages[g]))
	}
	sim.SetIteration(iter)
	for s := 0; s < NumStages; s++ {
		// Collect cross-GPU deps for collective stages.
		var collective []gpusim.OpID
		if commStageDeps(s) {
			for g := 0; g < n; g++ {
				collective = append(collective, h.StageOps[g][s-1])
			}
		}
		for g := 0; g < n; g++ {
			var deps []gpusim.OpID
			switch {
			case s == 0:
				deps = append(deps, extraDepsFor(extraDeps, g)...)
			case commStageDeps(s):
				deps = append(deps, collective...)
			default:
				deps = append(deps, h.StageOps[g][s-1])
			}
			h.StageStartDeps[g][s] = deps
			st := &t.stages[g][s]
			var id gpusim.OpID
			if st.Kind == StageComm {
				id = sim.AddLinkBusy(st.Name, g, st.Bytes, gpusim.WithDeps(deps...), gpusim.WithTag("train"))
			} else {
				id = sim.AddKernel(g, st.Kernel, gpusim.WithDeps(deps...), gpusim.WithPriority(1))
			}
			h.StageOps[g][s] = id
		}
	}
	var lasts []gpusim.OpID
	for g := 0; g < n; g++ {
		lasts = append(lasts, h.StageOps[g][NumStages-1])
	}
	h.End = sim.AddBarrier("it#/end", gpusim.WithDeps(lasts...))
	return h, nil
}

func extraDepsFor(extra [][]gpusim.OpID, g int) []gpusim.OpID {
	if extra == nil || g >= len(extra) {
		return nil
	}
	return extra[g]
}

// IterationSoloLatency estimates one iteration's uncontended latency on
// the critical path (max across GPUs of the serial stage chain; comm
// stages use the given link bandwidth).
//
//rap:unit linkGBs GB/s
//rap:unit return us
func (c Config) IterationSoloLatency(pl Placement, linkGBs float64) float64 {
	worst := 0.0
	for g := 0; g < pl.NumGPUs; g++ {
		total := 0.0
		for _, s := range c.IterationStages(g, pl) {
			total += s.SoloLatency(linkGBs)
		}
		if total > worst {
			worst = total
		}
	}
	return worst
}
