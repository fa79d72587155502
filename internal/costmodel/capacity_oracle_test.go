package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rap/internal/data"
	"rap/internal/dlrm"
	"rap/internal/gpusim"
)

// simulatedProbeCapacity is the independent oracle for probeCapacity:
// the capacity probe as a profiler would run it, one gpusim co-run per
// bisection step. The probe kernel demands 95% of the stage's leftover
// SM and memory bandwidth; a probe size fits when the stage stretches by
// at most 3% and the probe finishes no later than the stage. It returns
// an error when the largest bracketed probe (1.5× solo) already fits,
// i.e. when the bracket would have to grow.
func simulatedProbeCapacity(stage gpusim.Kernel, leftover gpusim.Demand) (float64, error) {
	solo := stage.SoloLatency()
	probeDemand := gpusim.Demand{SM: leftover.SM * 0.95, MemBW: leftover.MemBW * 0.95}
	if probeDemand.SM <= 0 && probeDemand.MemBW <= 0 {
		return 0, nil
	}
	fits := func(work float64) bool {
		sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 1, Policy: gpusim.FairShare})
		s := sim.AddKernel(0, stage)
		p := sim.AddKernel(0, gpusim.Kernel{Name: "probe", Work: work, Demand: probeDemand, Tag: "preproc"})
		res, err := sim.Run()
		if err != nil {
			return false
		}
		stRes, pRes := res.OpByID(s), res.OpByID(p)
		return stRes.Latency() <= solo*1.03 && pRes.End <= stRes.End
	}
	if !fits(1e-6) {
		return 0, nil
	}
	lo, hi := 0.0, solo*1.5
	if fits(hi) {
		return 0, fmt.Errorf("a probe of 1.5x solo (%g us) fits", hi)
	}
	for hi-lo > solo*0.01 {
		mid := (lo + hi) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// bisectsNearLimit reports whether the capacity bisection for stage
// probes a work within rounding of the closed-form limit (solo −
// DefaultLaunchOverhead). There the simulated probe's answer is decided
// by gpusim's event arithmetic: the engine completes an op whose
// remaining work is below 1e-9 µs at the current event, so a probe that
// overruns the stage by less than that still counts as hidden. The
// closed form models exact arithmetic, so the fuzz target skips such
// inputs; TestCapacityMatchesSimulatedProbe's sweep skips nothing.
func bisectsNearLimit(stage gpusim.Kernel) bool {
	solo := stage.SoloLatency()
	limit := solo - gpusim.DefaultLaunchOverhead
	tol := math.Max(1e-8, math.Abs(limit)*1e-15)
	near := func(w float64) bool { return math.Abs(w-limit) <= tol }
	if near(1e-6) {
		return true
	}
	lo, hi := 0.0, solo*1.5
	for hi-lo > solo*0.01 {
		mid := (lo + hi) / 2
		if near(mid) {
			return true
		}
		if mid <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return false
}

// leftoverOf is the headroom estimateCapacities gives a compute stage.
func leftoverOf(k gpusim.Kernel) gpusim.Demand {
	return gpusim.Demand{SM: math.Max(0, 1-k.Demand.SM), MemBW: math.Max(0, 1-k.Demand.MemBW)}
}

// checkAgainstOracle compares probeCapacity with the simulated probe bit
// for bit.
func checkAgainstOracle(t *testing.T, k gpusim.Kernel, leftover gpusim.Demand) {
	t.Helper()
	want, err := simulatedProbeCapacity(k, leftover)
	if err != nil {
		t.Fatalf("%+v: %v", k, err)
	}
	if got := probeCapacity(k, leftover); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%+v, leftover %+v: closed form %v (%#x), simulated probe %v (%#x)",
			k, leftover, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// sweepTableSizes repeats a dataset profile's hash sizes cyclically to n
// tables, the way wider preprocessing plans add tables.
func sweepTableSizes(hash []int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = hash[i%len(hash)]
	}
	return out
}

// TestCapacityMatchesSimulatedProbe: the closed-form capacity equals the
// simulated probe bit for bit on every compute stage of the Kaggle and
// Terabyte models (26 to 52 tables, batches 512-16384, pooling 1-6, 1-16
// GPUs) and on 20,000 seeded random kernels spanning Work e^-2..e^10 µs
// and launch overheads from 0 to 12.5 µs.
func TestCapacityMatchesSimulatedProbe(t *testing.T) {
	seen := map[probeKey]bool{}
	check := func(k gpusim.Kernel) {
		left := leftoverOf(k)
		if key := newProbeKey(k, left); !seen[key] {
			seen[key] = true
			checkAgainstOracle(t, k, left)
		}
	}
	models := []func([]int64, int) dlrm.Config{dlrm.KaggleConfig, dlrm.TerabyteConfig}
	hashes := [][]int64{data.KaggleGen(1).HashSizes, data.TerabyteGen(1).HashSizes}
	for m, model := range models {
		for _, tables := range []int{26, 39, 52} {
			sizes := sweepTableSizes(hashes[m], tables)
			for batch := 512; batch <= 16384; batch *= 2 {
				for pooling := 1; pooling <= 6; pooling++ {
					cfg := model(sizes, batch)
					cfg.AvgPooling = float64(pooling)
					for gpus := 1; gpus <= 16; gpus++ {
						pl := dlrm.PlaceTables(sizes, gpus)
						for g := 0; g < gpus; g++ {
							for _, st := range cfg.IterationStages(g, pl) {
								if st.Kind != dlrm.StageComm {
									check(st.Kernel)
								}
							}
						}
					}
				}
			}
		}
	}
	stages := len(seen)
	rng := rand.New(rand.NewSource(1))
	overheads := []float64{0, 0.3, 1, 4, 5, 6, 12.5}
	for i := 0; i < 20000; i++ {
		check(gpusim.Kernel{
			Name:           "k",
			Work:           math.Exp(-2 + 12*rng.Float64()),
			Demand:         gpusim.Demand{SM: rng.Float64(), MemBW: rng.Float64()},
			LaunchOverhead: overheads[rng.Intn(len(overheads))],
		})
	}
	t.Logf("%d distinct model stages, %d random kernels", stages, len(seen)-stages)
}

// FuzzCapacityMatchesSimulatedProbe compares the closed-form capacity
// with the simulated probe bit for bit on random stage kernels. It
// skips kernels with negative work or a NaN launch overhead (gpusim
// runs the first as zero work and rejects the second, and no training
// stage has either) and kernels whose bisection probes within rounding
// of the limit (bisectsNearLimit).
func FuzzCapacityMatchesSimulatedProbe(f *testing.F) {
	for _, seed := range []struct{ work, sm, memBW, overhead float64 }{
		{0.5, 0.3, 0.4, 0},    // Work <= 1 with the default overhead
		{1, 0.7, 0.35, 0.3},   // Work <= 1, small overhead: capacity 0
		{0.2, 0.1, 0.1, 12.5}, // Work <= 1, large overhead
		{800, 1, 0.35, 4},     // no SM left
		{800, 1, 1, 5},        // nothing left
		{800, 0.2, 1, 12.5},   // no memory bandwidth left
		{300, 1.4, -0.2, 0},   // demands outside [0, 1]
		{300, -0.5, 2, 0.3},
		{5000, 0.72, 0.3, 0},
		{2.5, 0.6, 0.7, 4},
		{22026, 0.2, 0.9, 5},
		{0.14, 0.05, 0.05, 0.3},
	} {
		f.Add(seed.work, seed.sm, seed.memBW, seed.overhead)
	}
	f.Fuzz(func(t *testing.T, work, sm, memBW, overhead float64) {
		k := gpusim.Kernel{Name: "k", Work: work, Demand: gpusim.Demand{SM: sm, MemBW: memBW}, LaunchOverhead: overhead}
		if work < 0 || math.IsNaN(overhead) || bisectsNearLimit(k) {
			t.Skip()
		}
		checkAgainstOracle(t, k, leftoverOf(k))
	})
}
