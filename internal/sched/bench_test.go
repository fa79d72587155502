package sched

import (
	"testing"

	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// BenchmarkPipeline times BuildAndRun of Terabyte plan 3 on 16 GPUs for
// 8 iterations, with a test-built schedule of GPU preprocessing kernels
// on every GPU (16,568 ops). It builds the first 3 iterations and
// stamps the other 5 (gpusim.Sim.Stamp), and keeps op results, names
// rendered, as the named runs of `light` and `wide` do. The fleet
// benchmark's real 16-GPU job, with the rap planner's sharded schedule,
// is cluster's BenchmarkFleetJob. DAG construction and the gpusim run
// are both timed; planning is set-up. The run records no utilization
// timelines, as every caller but the utilization, Table 4 and power
// studies runs.
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

// BenchmarkCoRunSchedule times Algorithm 1 on the 4 per-GPU plans of
// `wide` (widePlans), once per entry point: CoRunSchedule, which the
// per-GPU lowering calls, and CoRunExposed, which the mapping search
// scores every candidate with. One op covers all 4 GPUs; shards/op is
// the plans' summed NumShards, pieces/op the shards Algorithm 1 cuts in
// both passes, the discarded first included, and ns/piece is ns/op over
// pieces/op, the cost per piece.
// `go test -run '^$' -bench BenchmarkCoRunSchedule ./internal/sched`.
func BenchmarkCoRunSchedule(b *testing.B) {
	plans, cm := widePlans(b, 4096)
	shards, pieces := 0, 0
	for _, fp := range plans {
		a, err := corun(fp, cm, Options{}, false)
		if err != nil {
			b.Fatal(err)
		}
		shards += a.shards
		pieces += a.pieces
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(shards), "shards/op")
		b.ReportMetric(float64(pieces), "pieces/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pieces), "ns/piece")
	}
	b.Run("schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fp := range plans {
				if _, err := CoRunSchedule(fp, cm, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
	b.Run("exposed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fp := range plans {
				if _, err := CoRunExposed(fp, cm, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
}
