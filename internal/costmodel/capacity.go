package costmodel

import (
	"fmt"
	"math"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
)

// StageCapacity is the overlapping capacity of one DLRM training stage
// (§5.1): how many µs of standalone preprocessing latency can co-run
// with it without stretching it.
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

// SafetyFactor discounts the probed capacity before scheduling against
// it: the probe credits work right up to the stage's end, and planning
// at 100% of that bound would bake a systematic per-stage spill into
// the pipeline.
const SafetyFactor = 0.9 //rap:unit 1

// EstimateCapacities profiles every training stage of GPU gpu (§5.1's
// profiling step): a compute stage's capacity is SafetyFactor ×
// probeCapacity. Communication stages leave the whole GPU idle, so
// their capacity is their duration.
//
//rap:deterministic
func EstimateCapacities(cfg dlrm.Config, pl dlrm.Placement, gpu int, cluster gpusim.ClusterConfig) ([]StageCapacity, error) {
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
		} else {
			sc.Duration = st.Kernel.SoloLatency()
			sc.Leftover = gpusim.Demand{
				SM:    math.Max(0, 1-st.Kernel.Demand.SM),
				MemBW: math.Max(0, 1-st.Kernel.Demand.MemBW),
			}
			sc.Capacity = SafetyFactor * probeCapacity(st.Kernel, sc.Leftover)
		}
		out[i] = sc
	}
	return out, nil
}

// probeCapacity is the largest probe work (µs of standalone
// preprocessing latency) that co-runs with the stage and finishes no
// later than it. The paper measures it with a probe kernel demanding
// the stage's leftover SM and bandwidth. Stage plus probe then never
// demands more than 1 of a resource, so under gpusim's model neither
// slows down: the stage ends at its solo latency and the probe at
// DefaultLaunchOverhead + work. The probe is hidden exactly when
// work <= solo − DefaultLaunchOverhead, and the stage never stretches.
// capacity_oracle_test.go checks this against the simulated probe.
//
//rap:unit return us
func probeCapacity(stage gpusim.Kernel, leftover gpusim.Demand) float64 {
	if leftover.SM <= 0 && leftover.MemBW <= 0 {
		return 0
	}
	solo := stage.SoloLatency()
	return searchCapacity(solo-gpusim.DefaultLaunchOverhead, solo)
}

// searchCapacity bisects [0, 1.5×solo] to solo/100 for the largest work
// within limit, as a profiler bisecting a real co-run would. It returns
// the bisection, not limit itself: that is the measured capacity.
//
//rap:unit limit us
//rap:unit solo us
//rap:unit return us
func searchCapacity(limit, solo float64) float64 {
	fits := func(work float64) bool { return work <= limit } // false on a NaN limit
	if !fits(1e-6) {
		return 0
	}
	lo, hi := 0.0, solo*1.5
	for hi-lo > solo*0.01 {
		if mid := (lo + hi) / 2; fits(mid) {
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
