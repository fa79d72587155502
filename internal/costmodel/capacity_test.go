package costmodel

import (
	"math"
	"reflect"
	"testing"

	"rap/internal/gpusim"
)

// TestSearchCapacityRejectsEverything: a limit below the smallest
// probe (negative, tiny or NaN) hides nothing.
func TestSearchCapacityRejectsEverything(t *testing.T) {
	for _, limit := range []float64{-5, 0, 1e-7, math.NaN()} {
		if got := searchCapacity(limit, 100); got != 0 {
			t.Fatalf("limit %v: capacity = %f, want 0", limit, got)
		}
	}
}

// TestSearchCapacityWithinBracket: a limit inside the bracket is found
// to resolution, from below.
func TestSearchCapacityWithinBracket(t *testing.T) {
	const solo, threshold = 100.0, 80.0
	got := searchCapacity(threshold, solo)
	if got > threshold || threshold-got > solo*0.01 {
		t.Fatalf("capacity = %f, want %f ± %f", got, threshold, solo*0.01)
	}
}

// TestEstimateCapacitiesCachedMatchesUncached: memoization must be
// invisible in results — per-GPU outputs with a shared cache deep-equal
// the uncached ones, and the second GPU's probes are mostly hits
// (homogeneous GPUs share stage profiles).
func TestEstimateCapacitiesCachedMatchesUncached(t *testing.T) {
	cfg, pl := testConfig()
	cluster := gpusim.ClusterConfig{NumGPUs: 4}
	cache := NewProbeCache()
	for gpu := 0; gpu < pl.NumGPUs; gpu++ {
		plain, err := EstimateCapacities(cfg, pl, gpu, cluster)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := EstimateCapacitiesCached(cfg, pl, gpu, cluster, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, cached) {
			t.Fatalf("gpu %d: cached result differs from uncached", gpu)
		}
	}
	hits, misses := cache.Stats()
	if hits == 0 {
		t.Fatalf("no cache hits across %d homogeneous GPUs (misses %d)", pl.NumGPUs, misses)
	}
	// A full re-estimate of GPU 0 must be all hits.
	preHits, preMisses := hits, misses
	if _, err := EstimateCapacitiesCached(cfg, pl, 0, cluster, cache); err != nil {
		t.Fatal(err)
	}
	hits, misses = cache.Stats()
	if misses != preMisses {
		t.Fatalf("repeat estimate missed %d probes", misses-preMisses)
	}
	if hits <= preHits {
		t.Fatal("repeat estimate produced no hits")
	}
}

// TestProbeFullyHidden pins the closed form's bound: a compute stage's
// capacity never exceeds SafetyFactor × (Duration −
// DefaultLaunchOverhead), the work a probe launched with the stage can
// finish before the stage ends.
func TestProbeFullyHidden(t *testing.T) {
	cfg, pl := testConfig()
	caps, err := EstimateCapacities(cfg, pl, 0, gpusim.ClusterConfig{NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if c.Name == "a2a_fwd" || c.Name == "a2a_bwd" || c.Name == "allreduce" {
			continue // comm stages: capacity == duration by definition
		}
		if bound := SafetyFactor * (c.Duration - gpusim.DefaultLaunchOverhead); c.Capacity > bound {
			t.Fatalf("stage %s: capacity %f exceeds the hidden bound %f for duration %f",
				c.Name, c.Capacity, bound, c.Duration)
		}
	}
}

// TestProbeKeyBitExact: a probe key covers every float the capacity
// reads bit for bit, so inputs that differ only in one float's last bit
// get distinct keys.
func TestProbeKeyBitExact(t *testing.T) {
	stage := gpusim.Kernel{Name: "k", Work: 12.5, Demand: gpusim.Demand{SM: 0.4, MemBW: 0.3}, Warps: 8, LaunchOverhead: 5, Tag: "preproc"}
	leftover := gpusim.Demand{SM: 0.6, MemBW: 0.7}
	base := newProbeKey(stage, leftover)
	if again := newProbeKey(stage, leftover); again != base {
		t.Fatalf("equal inputs gave distinct keys: %+v vs %+v", base, again)
	}
	for i := 0; i < 6; i++ {
		k, d := stage, leftover
		f := [...]*float64{&k.Work, &k.Demand.SM, &k.Demand.MemBW, &k.LaunchOverhead, &d.SM, &d.MemBW}[i]
		*f = math.Float64frombits(math.Float64bits(*f) ^ 1)
		if newProbeKey(k, d) == base {
			t.Errorf("float %d differing in its last bit left the probe key unchanged", i)
		}
	}
}
