package rap

import (
	"testing"

	"rap/internal/gpusim"
)

// BenchmarkBuildPlan times what one `wide` benchmark job plans: a cold
// BuildPlan of Terabyte plan 3 on 4 GPUs from a fresh framework, then
// AdaptToShift to one of the 18 shifted list lengths {1.5, 1.75, …, 6.0}
// without the base 3.0, cycling through them across iterations.
func BenchmarkBuildPlan(b *testing.B) {
	w, err := NewWorkload(Terabyte, 3, 4096, 1)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(w, cluster)
		if _, err := f.BuildPlan(BuildOptions{}); err != nil {
			b.Fatal(err)
		}
		if _, err := f.AdaptToShift(shifts[i%len(shifts)], BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
