package cluster

import (
	"testing"

	"rap/internal/rap"
	"rap/internal/topo"
)

// BenchmarkFleetJob times the fleet benchmark's heaviest job: ExecuteTopo
// of the rap-planned Terabyte plan 3 on 16 GPUs (per-GPU batch 4096, 8
// iterations), on the 2-node subset of a 100 GB/s, 4× oversubscribed
// fleet that Pack places it on, with one co-tenant congesting node 0's
// fabric link (scale 0.5). The plan comes from the Simulator's planFor,
// so the run is the one a fleet job makes: no utilization timelines and
// end times only. Planning is set-up; DAG construction and the gpusim
// run are timed.
// `go test -run '^$' -bench BenchmarkFleetJob ./internal/cluster`.
func BenchmarkFleetJob(b *testing.B) {
	const gpus = 16
	sub := topo.Uniform(2, gpus/2)
	sub.FabricGBs = 100
	sub.Oversub = 4
	s, err := New(Config{Topo: sub, Policy: Pack{}})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := s.planFor(JobShape{Dataset: rap.Terabyte, PlanIdx: 3, PerGPUBatch: 4096, GPUs: gpus, Iterations: 8})
	if err != nil {
		b.Fatal(err)
	}
	fabricScale := []float64{0.5, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.fw.ExecuteTopo(ps.plan, 8, sub, fabricScale); err != nil {
			b.Fatal(err)
		}
	}
}
