package gpusim

// BenchKernels and BenchGPUs describe the canonical engine-benchmark DAG
// shape, reported alongside timings in BENCH_engine.json.
const (
	BenchKernels = 1000
	BenchGPUs    = 8
)

// NewBenchmarkSim constructs the dense co-run DAG used both by
// BenchmarkEngine and by rapbench's engine-regression entry: BenchKernels
// kernels across BenchGPUs GPUs with stream chaining, so most events see
// many concurrent resource users. Sharing one constructor keeps the
// in-repo benchmark and the emitted regression numbers on the same
// workload.
func NewBenchmarkSim() *Sim {
	s := NewSim(ClusterConfig{NumGPUs: BenchGPUs})
	for k := 0; k < BenchKernels; k++ {
		g := k % BenchGPUs
		s.AddKernel(g, Kernel{
			Name: "k", Work: float64(1 + k%50),
			Demand: Demand{SM: 0.1 + float64(k%7)*0.1, MemBW: 0.2},
		}, WithStream("s"+string(rune('a'+k%4))))
	}
	return s
}
