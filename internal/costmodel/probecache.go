package costmodel

import (
	"math"

	"rap/internal/gpusim"
	"rap/internal/memo"
)

// ProbeCache memoizes capacity-probe results across EstimateCapacities
// calls, keyed by probeKey. Homogeneous GPUs run near-identical stage
// lineups, so the per-GPU profiling sweep of one plan mostly re-probes
// kernels another GPU already measured; sharing one cache across those
// calls (and across plans in a replanning loop) collapses the sweep.
type ProbeCache = memo.Cache[probeKey, float64]

// NewProbeCache returns an empty probe cache.
func NewProbeCache() *ProbeCache { return memo.New[probeKey, float64]() }

// probeKey is everything probeCapacity reads: the stage kernel, the
// leftover demand, and the cluster fields the probe simulation consumes
// (LinkGBs and CopyGBs — the probe always runs single-GPU under
// FairShare). Floats are held as math.Float64bits, so two keys are equal
// only when every input is bit-identical.
type probeKey struct {
	name, tag                 string
	warps                     int
	work, sm, memBW, overhead uint64
	leftoverSM, leftoverMemBW uint64
	linkGBs, copyGBs          uint64
}

func newProbeKey(stage gpusim.Kernel, leftover gpusim.Demand, cluster gpusim.ClusterConfig) probeKey {
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
		linkGBs:       math.Float64bits(cluster.LinkGBs),
		copyGBs:       math.Float64bits(cluster.CopyGBs),
	}
}
