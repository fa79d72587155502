package gpusim

import "testing"

// BenchmarkEngine measures the discrete-event engine on the canonical
// dense co-run DAG (see NewBenchmarkSim):
// `go test -bench BenchmarkEngine ./internal/gpusim`.
func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewBenchmarkSim()
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
