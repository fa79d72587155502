package rap

import (
	"testing"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
)

// BenchmarkBuildPlan times what one `wide` benchmark job plans: a cold
// BuildPlan of Terabyte plan 3 on 4 GPUs from a fresh framework, then
// AdaptToShift to one of the 18 shifted list lengths {1.5, 1.75, …, 6.0}
// without the base 3.0, cycling through them across iterations. It
// reports the mapping search's cost evaluations per op, over both plans.
func BenchmarkBuildPlan(b *testing.B) { benchBuildPlan(b, 3) }

// BenchmarkBuildPlanDense is BenchmarkBuildPlan for `dense`'s inputs,
// Terabyte plan 2 on 4 GPUs, where the per-GPU MILP solves dominate;
// `-cpu 1,2` measures what BuildPlan's per-GPU fan-out buys.
func BenchmarkBuildPlanDense(b *testing.B) { benchBuildPlan(b, 2) }

func benchBuildPlan(b *testing.B, plan int) {
	w, err := NewWorkload(Terabyte, plan, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	var shifts []float64
	for k := 0; k <= 18; k++ {
		if k != 6 {
			shifts = append(shifts, 1.5+0.25*float64(k))
		}
	}
	cluster := gpusim.ClusterConfig{NumGPUs: 4, HostCores: 48}
	evals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(w, cluster)
		cold, err := f.BuildPlan(BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		shifted, err := f.AdaptToShift(shifts[i%len(shifts)], BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		evals += cold.Mapping.CostEvals + shifted.Mapping.CostEvals
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}

// BenchmarkEstimateCapacities times BuildPlan's step 2 on `light`'s
// inputs: every GPU's stage capacities for Terabyte plan 1 on 8 GPUs.
func BenchmarkEstimateCapacities(b *testing.B) {
	w, err := NewWorkload(Terabyte, 1, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := New(w, gpusim.ClusterConfig{NumGPUs: 8})
	pl := dlrm.PlaceTables(w.Model.TableSizes, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.estimateCapacities(pl); err != nil {
			b.Fatal(err)
		}
	}
}
