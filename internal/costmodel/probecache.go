package costmodel

import (
	"math"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
	"rap/internal/memo"
)

// ProbeCache memoizes stage capacities across EstimateCapacitiesCached
// calls, keyed by probeKey.
//
// Deprecated: a capacity is a closed form (see probeCapacity), so there
// is nothing worth memoizing; use EstimateCapacities. The cache only
// serves the end-to-end benchmark's planner replay and its hit counts;
// ROADMAP item 3 deletes both.
type ProbeCache = memo.Cache[probeKey, float64]

// NewProbeCache returns an empty probe cache.
//
// Deprecated: see ProbeCache.
func NewProbeCache() *ProbeCache { return memo.New[probeKey, float64]() }

// EstimateCapacitiesCached is EstimateCapacities with each compute
// stage's capacity looked up in cache under its probeKey (a nil cache
// counts nothing). Results are identical to EstimateCapacities.
//
// Deprecated: see ProbeCache.
//
//rap:deterministic
func EstimateCapacitiesCached(cfg dlrm.Config, pl dlrm.Placement, gpu int, cluster gpusim.ClusterConfig, cache *ProbeCache) ([]StageCapacity, error) {
	caps, err := EstimateCapacities(cfg, pl, gpu, cluster)
	if err != nil {
		return nil, err
	}
	for i, st := range cfg.IterationStages(gpu, pl) {
		if st.Kind != dlrm.StageComm {
			caps[i].Capacity, _ = cache.Get(newProbeKey(st.Kernel, caps[i].Leftover), func() (float64, error) {
				return caps[i].Capacity, nil
			})
		}
	}
	return caps, nil
}

// probeKey covers every field of the stage kernel and the leftover
// demand. Floats are held as math.Float64bits, so two keys are
// equal only when every input is bit-identical.
type probeKey struct {
	name, tag                 string
	warps                     int
	work, sm, memBW, overhead uint64
	leftoverSM, leftoverMemBW uint64
}

func newProbeKey(stage gpusim.Kernel, leftover gpusim.Demand) probeKey {
	return probeKey{
		name:          stage.Name,
		tag:           stage.Tag,
		warps:         stage.Warps,
		work:          math.Float64bits(stage.Work),
		sm:            math.Float64bits(stage.Demand.SM),
		memBW:         math.Float64bits(stage.Demand.MemBW),
		overhead:      math.Float64bits(stage.LaunchOverhead),
		leftoverSM:    math.Float64bits(leftover.SM),
		leftoverMemBW: math.Float64bits(leftover.MemBW),
	}
}
