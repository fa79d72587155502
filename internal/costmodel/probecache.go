package costmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"rap/internal/gpusim"
	"rap/internal/memo"
)

// ProbeCache memoizes capacity-probe results across EstimateCapacities
// calls, keyed by probeKey. Homogeneous GPUs run near-identical stage
// lineups, so the per-GPU profiling sweep of one plan mostly re-probes
// kernels another GPU already measured; sharing one cache across those
// calls (and across plans in a replanning loop) collapses the sweep.
type ProbeCache = memo.Cache[string, float64]

// NewProbeCache returns an empty probe cache.
func NewProbeCache() *ProbeCache { return memo.New[string, float64]() }

// probeKey is the deep content hash of everything probeCapacity reads:
// the stage kernel, the leftover demand, and the cluster fields the
// probe simulation consumes (LinkGBs and CopyGBs — the probe always
// runs single-GPU under FairShare). Floats are rendered in hex
// notation so the key is bit-exact, mirroring the content-hash idiom
// of internal/lint's analysis cache.
func probeKey(stage gpusim.Kernel, leftover gpusim.Demand, cluster gpusim.ClusterConfig) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	fmt.Fprintf(h, "kernel %q work=%s sm=%s membw=%s warps=%d overhead=%s tag=%q\n",
		stage.Name, f(stage.Work), f(stage.Demand.SM), f(stage.Demand.MemBW),
		stage.Warps, f(stage.LaunchOverhead), stage.Tag)
	fmt.Fprintf(h, "leftover sm=%s membw=%s\n", f(leftover.SM), f(leftover.MemBW))
	fmt.Fprintf(h, "cluster link=%s copy=%s\n", f(cluster.LinkGBs), f(cluster.CopyGBs))
	return hex.EncodeToString(h.Sum(nil))
}
