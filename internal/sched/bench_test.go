package sched

import (
	"testing"

	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// BenchmarkPipeline times BuildAndRun of Terabyte plan 3 on 16 GPUs for
// 8 iterations, with a test-built schedule of GPU preprocessing kernels
// on every GPU (16,568 ops). The fleet benchmark's real 16-GPU job, with
// the rap planner's sharded schedule, is cluster's BenchmarkFleetJob.
// DAG construction and the gpusim run are both timed; planning is
// set-up.
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
