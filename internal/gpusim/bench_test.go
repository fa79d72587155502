package gpusim

import "testing"

// BenchmarkEngine measures the discrete-event engine on the canonical
// dense co-run DAG (see NewBenchmarkSim), once per sub-benchmark:
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
				s := NewBenchmarkSim(c.timelines)
				b.StartTimer()
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
