package cluster

import (
	"testing"

	"rap/internal/gpusim"
	"rap/internal/rap"
	"rap/internal/topo"
)

// BenchmarkFleetJob times the fleet benchmark's heaviest job: ExecuteTopo
// of the rap-planned Terabyte plan 3 on 16 GPUs (per-GPU batch 4096, 8
// iterations), on the 2-node subset of a 100 GB/s, 4× oversubscribed
// fleet that Pack places it on, with one co-tenant congesting node 0's
// fabric link (scale 0.5). Planning is set-up; DAG construction and the
// gpusim run are timed. Like every fleet job, the run records no
// utilization timelines.
// `go test -run '^$' -bench BenchmarkFleetJob ./internal/cluster`.
func BenchmarkFleetJob(b *testing.B) {
	const gpus = 16
	w, err := rap.NewWorkload(rap.Terabyte, 3, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	fw := rap.New(w, gpusim.ClusterConfig{NumGPUs: gpus, HostCores: 48})
	plan, err := fw.BuildPlan(rap.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sub := topo.Uniform(2, gpus/2)
	sub.FabricGBs = 100
	sub.Oversub = 4
	fabricScale := []float64{0.5, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.ExecuteTopo(plan, 8, sub, fabricScale); err != nil {
			b.Fatal(err)
		}
	}
}
