package costmodel

import (
	"fmt"
	"math"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
)

// StageCapacity is the measured overlapping capacity of one DLRM
// training stage (§5.1): how many µs of standalone preprocessing latency
// can co-run with it without stretching it beyond tolerance.
type StageCapacity struct {
	Index int
	Name  string
	// Duration is the stage's solo latency (µs).
	Duration float64 //rap:unit us
	// Leftover is the GPU resource headroom while the stage runs; a
	// co-running kernel whose demand fits inside it is contention-free.
	Leftover gpusim.Demand
	// Capacity is the measured overlapping capacity in standalone-
	// preprocessing-latency µs (the paper's latency-based abstraction).
	Capacity float64 //rap:unit us
}

// Tolerance is the acceptable relative stretch of a training stage used
// when probing capacity (the "without extending the total latency"
// criterion, with measurement slack).
const Tolerance = 0.03 //rap:unit 1

// SafetyFactor discounts the probed capacity before scheduling against
// it: probing tolerates a small stretch, but planning at 100% of the
// tolerant measurement would bake a systematic per-stage spill into the
// pipeline.
const SafetyFactor = 0.9 //rap:unit 1

// EstimateCapacities profiles every training stage of GPU gpu by
// co-running probe preprocessing kernels against it in an isolated
// simulation and binary-searching the largest hidden probe (§5.1's
// profiling step, replacing hardware measurement). Communication stages
// leave the whole GPU idle, so their capacity is their duration.
func EstimateCapacities(cfg dlrm.Config, pl dlrm.Placement, gpu int, cluster gpusim.ClusterConfig) ([]StageCapacity, error) {
	return EstimateCapacitiesCached(cfg, pl, gpu, cluster, nil)
}

// EstimateCapacitiesCached is EstimateCapacities with probe memoization:
// stages whose (kernel, leftover, cluster) content hash is already in
// the cache skip the binary-search simulation sweep entirely.
// Homogeneous GPUs share most stage profiles, so a cache shared across
// the per-GPU calls of one plan collapses the sweep to roughly one
// GPU's worth of probes. A nil cache disables memoization. The cache is
// safe for concurrent use and never changes results — only whether they
// are recomputed.
//
//rap:deterministic
func EstimateCapacitiesCached(cfg dlrm.Config, pl dlrm.Placement, gpu int, cluster gpusim.ClusterConfig, cache *ProbeCache) ([]StageCapacity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if gpu < 0 || gpu >= pl.NumGPUs {
		return nil, fmt.Errorf("costmodel: gpu %d out of range", gpu)
	}
	cluster = cluster.WithDefaults()
	stages := cfg.IterationStages(gpu, pl)
	out := make([]StageCapacity, len(stages))
	for i, st := range stages {
		sc := StageCapacity{Index: i, Name: st.Name}
		if st.Kind == dlrm.StageComm {
			sc.Duration = st.SoloLatency(cluster.LinkGBs)
			sc.Leftover = gpusim.Demand{SM: 1, MemBW: 1}
			sc.Capacity = sc.Duration
			out[i] = sc
			continue
		}
		sc.Duration = st.Kernel.SoloLatency()
		sc.Leftover = gpusim.Demand{
			SM:    math.Max(0, 1-st.Kernel.Demand.SM),
			MemBW: math.Max(0, 1-st.Kernel.Demand.MemBW),
		}
		leftover := sc.Leftover
		// The probe cannot fail, so Get's error is always nil.
		sc.Capacity, _ = cache.Get(newProbeKey(st.Kernel, leftover, cluster), func() (float64, error) {
			return SafetyFactor * probeCapacity(st.Kernel, leftover, cluster), nil
		})
		out[i] = sc
	}
	return out, nil
}

// maxCapacityGrowth bounds the geometric bracket growth of the capacity
// search: a probe is never credited with more than this multiple of the
// stage's solo latency. It exists to terminate the search against
// pathological fit predicates, not to clip realistic measurements —
// under the FairShare engine a hidden probe cannot exceed the stage's
// own span by much (speed never exceeds 1).
const maxCapacityGrowth = 64

// probeCapacity searches for the largest probe work (µs of standalone
// preprocessing latency) that co-runs with the stage kernel while (a)
// the stage stretches by at most Tolerance and (b) the probe finishes
// no later than the stage (fully hidden: pRes.End <= stRes.End).
//
//rap:unit return us
func probeCapacity(stage gpusim.Kernel, leftover gpusim.Demand, cluster gpusim.ClusterConfig) float64 {
	solo := stage.SoloLatency()
	probeDemand := gpusim.Demand{SM: leftover.SM * 0.95, MemBW: leftover.MemBW * 0.95}
	if probeDemand.SM <= 0 && probeDemand.MemBW <= 0 {
		return 0
	}
	probeCluster := gpusim.ClusterConfig{NumGPUs: 1, Policy: gpusim.FairShare,
		LinkGBs: cluster.LinkGBs, CopyGBs: cluster.CopyGBs}
	fits := func(work float64) bool {
		sim := gpusim.NewSim(probeCluster)
		s := sim.AddKernel(0, stage)
		p := sim.AddKernel(0, gpusim.Kernel{
			Name: "probe", Work: work, Demand: probeDemand, Tag: "preproc",
		})
		res, err := sim.Run()
		if err != nil {
			return false
		}
		stRes, pRes := res.OpByID(s), res.OpByID(p)
		return stRes.Latency() <= solo*(1+Tolerance) && pRes.End <= stRes.End
	}
	return searchCapacity(fits, solo)
}

// searchCapacity binary-searches the largest work accepted by fits,
// bracketing from above by geometric growth: the upper bound starts at
// 1.5× solo and doubles while fits still holds (up to maxCapacityGrowth
// × solo), so a high-headroom stage whose true capacity exceeds the
// initial bracket is measured instead of silently clipped. fits must be
// monotone (fits(w) implies fits(w') for all w' < w); the result is
// within solo/100 of the true threshold.
//
//rap:unit solo us
//rap:unit return us
func searchCapacity(fits func(work float64) bool, solo float64) float64 {
	if !fits(1e-6) {
		return 0
	}
	lo, hi := 0.0, solo*1.5
	for fits(hi) {
		lo = hi
		if hi >= solo*maxCapacityGrowth {
			return hi
		}
		hi *= 2
		if hi > solo*maxCapacityGrowth {
			hi = solo * maxCapacityGrowth
		}
	}
	for hi-lo > solo*0.01 {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TotalCapacity sums the capacities of all stages — the per-iteration
// preprocessing budget of one GPU.
//
//rap:unit return us
func TotalCapacity(caps []StageCapacity) float64 {
	t := 0.0
	for _, c := range caps {
		t += c.Capacity
	}
	return t
}
