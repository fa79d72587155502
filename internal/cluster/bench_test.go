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
// fabric link (scale 0.5). The plan comes from buildPlan, as every
// fleet plan does, so the run is the one a fleet job makes: no
// utilization timelines and end times only, so it builds 3 of its 8
// iterations and stamps the other 5 (sched.BuildAndRun). Planning is
// set-up; DAG construction and the gpusim run are timed. ns/event is
// per event of the gpusim run (Result.Events).
// `go test -run '^$' -bench BenchmarkFleetJob ./internal/cluster`.
func BenchmarkFleetJob(b *testing.B) {
	const gpus = 16
	sub := topo.Uniform(2, gpus/2)
	sub.FabricGBs = 100
	sub.Oversub = 4
	ps, err := buildPlan(JobShape{Dataset: rap.Terabyte, PlanIdx: 3, PerGPUBatch: 4096, GPUs: gpus, Iterations: 8})
	if err != nil {
		b.Fatal(err)
	}
	fabricScale := []float64{0.5, 1}
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		st, err := ps.fw.ExecuteTopo(ps.plan, 8, sub, fabricScale)
		if err != nil {
			b.Fatal(err)
		}
		events = st.Result.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkFleetFill times the plan fill of the fleet benchmark: each
// op is a fresh Simulator on a 16-node × 8-GPU fleet (100 GB/s fabric,
// 4× oversubscribed) simulating the six-shape menu as one-iteration
// jobs that all arrive at t = 0, so every op plans the six shapes
// from a cold cache and runs one simulation each. Those jobs start at
// one instant and resolve together, on up to GOMAXPROCS goroutines;
// `-cpu 1,2` shows what the concurrency buys.
// `go test -run '^$' -bench BenchmarkFleetFill -cpu 1,2 ./internal/cluster`.
func BenchmarkFleetFill(b *testing.B) {
	fleet := topo.Uniform(16, 8)
	fleet.FabricGBs = 100
	fleet.Oversub = 4
	fill := make([]Job, len(shapeMenu))
	for i, sh := range shapeMenu {
		sh.Iterations = 1
		fill[i] = Job{ID: i, Shape: sh}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Topo: fleet, Policy: Pack{}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Simulate(fill); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTrace times one warm-plan Simulate of a 24-job
// GenerateJobs trace (seed 1, 2000 µs mean gap, all six menu shapes) on
// a 16-node × 8-GPU fleet (100 GB/s fabric, 4× oversubscribed): the
// plans are built before the timer starts, so an op is the fleet loop
// and every job simulation, which resolve in batches on up to
// GOMAXPROCS goroutines (DESIGN.md §10). B/op is what a trace's
// simulations allocate; `-cpu 1,2` shows what the concurrency buys.
// `go test -run '^$' -bench BenchmarkFleetTrace -cpu 1,2 ./internal/cluster`.
func BenchmarkFleetTrace(b *testing.B) {
	fleet := topo.Uniform(16, 8)
	fleet.FabricGBs = 100
	fleet.Oversub = 4
	jobs, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 24})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Topo: fleet, Policy: Pack{}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Simulate(jobs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(jobs); err != nil {
			b.Fatal(err)
		}
	}
}
