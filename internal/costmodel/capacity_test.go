package costmodel

import (
	"math"
	"reflect"
	"testing"

	"rap/internal/gpusim"
)

// TestSearchCapacityGrowsBeyondInitialBracket is the regression test
// for the silent capacity ceiling: the old search pinned hi at 1.5×
// solo without ever testing it against fits, so any stage whose true
// capacity exceeded the bracket converged to the cap and under-
// reported. The geometric growth must find a threshold well past the
// old ceiling.
func TestSearchCapacityGrowsBeyondInitialBracket(t *testing.T) {
	const solo = 100.0
	const threshold = 3.7 * solo // far beyond the old 1.5×solo ceiling
	calls := 0
	fits := func(w float64) bool {
		calls++
		return w <= threshold
	}
	got := searchCapacity(fits, solo)
	if math.Abs(got-threshold) > solo*0.01 {
		t.Fatalf("capacity = %f, want %f ± %f (old code capped at %f)",
			got, threshold, solo*0.01, 1.5*solo)
	}
	if calls > 60 {
		t.Fatalf("search used %d probes; growth should stay logarithmic", calls)
	}
}

// TestSearchCapacityBounded pins the growth bound: a fit predicate that
// never rejects must terminate at maxCapacityGrowth × solo instead of
// doubling forever.
func TestSearchCapacityBounded(t *testing.T) {
	const solo = 10.0
	got := searchCapacity(func(float64) bool { return true }, solo)
	if got != solo*maxCapacityGrowth {
		t.Fatalf("unbounded fits returned %f, want the %f bound", got, solo*maxCapacityGrowth)
	}
}

// TestSearchCapacityRejectsEverything mirrors the zero-headroom case.
func TestSearchCapacityRejectsEverything(t *testing.T) {
	if got := searchCapacity(func(float64) bool { return false }, 100); got != 0 {
		t.Fatalf("capacity = %f, want 0", got)
	}
}

// TestSearchCapacityWithinBracket checks the unchanged common case: a
// threshold inside the initial bracket is still found to resolution.
func TestSearchCapacityWithinBracket(t *testing.T) {
	const solo, threshold = 100.0, 80.0
	got := searchCapacity(func(w float64) bool { return w <= threshold }, solo)
	if math.Abs(got-threshold) > solo*0.01 {
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

// TestProbeFullyHidden pins the aligned criterion: with the probe
// required to finish no later than the stage, the raw probed work can
// never exceed the stage's stretched span, so the reported capacity
// stays below duration × (1 + Tolerance) (before the safety discount,
// ≈ duration).
func TestProbeFullyHidden(t *testing.T) {
	cfg, pl := testConfig()
	caps, err := EstimateCapacities(cfg, pl, 0, gpusim.ClusterConfig{NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		if c.Name == "a2a_fwd" || c.Name == "a2a_bwd" || c.Name == "grad_sync" {
			continue // comm stages: capacity == duration by definition
		}
		if c.Capacity > c.Duration*(1+Tolerance) {
			t.Fatalf("stage %s: capacity %f exceeds hidden bound for duration %f",
				c.Name, c.Capacity, c.Duration)
		}
	}
}

// TestProbeKeyBitExact: a probe key covers every float probeCapacity
// reads bit for bit, so inputs that differ only in one float's last
// bit get distinct keys.
func TestProbeKeyBitExact(t *testing.T) {
	stage := gpusim.Kernel{Name: "k", Work: 12.5, Demand: gpusim.Demand{SM: 0.4, MemBW: 0.3}, Warps: 8, LaunchOverhead: 5, Tag: "preproc"}
	leftover := gpusim.Demand{SM: 0.6, MemBW: 0.7}
	cluster := gpusim.ClusterConfig{NumGPUs: 1, LinkGBs: 300, CopyGBs: 25}
	base := newProbeKey(stage, leftover, cluster)
	if again := newProbeKey(stage, leftover, cluster); again != base {
		t.Fatalf("equal inputs gave distinct keys: %+v vs %+v", base, again)
	}
	for i := 0; i < 8; i++ {
		k, d, c := stage, leftover, cluster
		f := [...]*float64{&k.Work, &k.Demand.SM, &k.Demand.MemBW, &k.LaunchOverhead, &d.SM, &d.MemBW, &c.LinkGBs, &c.CopyGBs}[i]
		*f = math.Float64frombits(math.Float64bits(*f) ^ 1)
		if newProbeKey(k, d, c) == base {
			t.Errorf("float %d differing in its last bit left the probe key unchanged", i)
		}
	}
}
