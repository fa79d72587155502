package gpusim

import "testing"

// benchKernels and benchGPUs describe the canonical engine-benchmark
// DAG shape.
const (
	benchKernels = 1000
	benchGPUs    = 8
)

// newBenchmarkSim constructs the dense co-run DAG BenchmarkEngine times:
// benchKernels kernels across benchGPUs GPUs with stream chaining, so
// most events see many concurrent resource users. timelines sets the
// cluster's Timelines.
func newBenchmarkSim(timelines bool) *Sim {
	s := NewSim(ClusterConfig{NumGPUs: benchGPUs, Timelines: timelines})
	streams := make([]Stream, 4)
	for i := range streams {
		streams[i] = s.NewStream()
	}
	for k := 0; k < benchKernels; k++ {
		g := k % benchGPUs
		s.AddKernel(g, Kernel{
			Name: "k", Work: float64(1 + k%50),
			Demand: Demand{SM: 0.1 + float64(k%7)*0.1, MemBW: 0.2},
		}, WithStream(streams[k%4]))
	}
	return s
}

// BenchmarkEngine measures the discrete-event engine on the canonical
// dense co-run DAG (see newBenchmarkSim), once per sub-benchmark:
// timelines records the utilization timelines, the configuration
// DESIGN.md §5's regression history measured, and plain records none,
// as the end-to-end benchmark's workloads run.
// `go test -bench BenchmarkEngine ./internal/gpusim`.
func BenchmarkEngine(b *testing.B) {
	for _, c := range []struct {
		name      string
		timelines bool
	}{{"timelines", true}, {"plain", false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := newBenchmarkSim(c.timelines)
				b.StartTimer()
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
