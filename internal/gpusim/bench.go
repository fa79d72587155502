package gpusim

// benchKernels and benchGPUs describe the canonical engine-benchmark
// DAG shape.
const (
	benchKernels = 1000
	benchGPUs    = 8
)

// NewBenchmarkSim constructs the dense co-run DAG BenchmarkEngine times:
// benchKernels kernels across benchGPUs GPUs with stream chaining, so
// most events see many concurrent resource users. timelines sets the
// cluster's Timelines.
func NewBenchmarkSim(timelines bool) *Sim {
	s := NewSim(ClusterConfig{NumGPUs: benchGPUs, Timelines: timelines})
	for k := 0; k < benchKernels; k++ {
		g := k % benchGPUs
		s.AddKernel(g, Kernel{
			Name: "k", Work: float64(1 + k%50),
			Demand: Demand{SM: 0.1 + float64(k%7)*0.1, MemBW: 0.2},
		}, WithStream("s"+string(rune('a'+k%4))))
	}
	return s
}
