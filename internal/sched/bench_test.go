package sched

import (
	"testing"

	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// BenchmarkPipeline times BuildAndRun on the shape of the fleet
// benchmark's largest job: Terabyte plan 3 on 16 GPUs for 8 iterations,
// with GPU preprocessing kernels on every GPU. DAG construction and the
// gpusim run are both timed; planning is set-up.
// `go test -run '^$' -bench BenchmarkPipeline ./internal/sched`.
func BenchmarkPipeline(b *testing.B) {
	const n = 16
	cfg, pl, cm := testSetup(b, n, 4096)
	work := buildWork(b, cm, splitGraphs(preproc.MustStandardPlan(3, nil), n), 4096)
	cluster := gpusim.ClusterConfig{NumGPUs: n, HostCores: 48}
	opts := PipelineOptions{Iterations: 8, Interleave: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildAndRun(cluster, cfg, pl, work, opts); err != nil {
			b.Fatal(err)
		}
	}
}
