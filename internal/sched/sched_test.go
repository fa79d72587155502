package sched

import (
	"math"
	"strings"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/fusion"
	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// allKernels returns s's kernels in launch order: every stage's, then
// the overflow.
func allKernels(s *Schedule) []preproc.KernelSpec {
	var out []preproc.KernelSpec
	for _, ks := range s.PerStage {
		out = append(out, ks...)
	}
	return append(out, s.Overflow...)
}

func testSetup(t testing.TB, numGPUs int, batch int) (dlrm.Config, dlrm.Placement, *costmodel.CostModel) {
	t.Helper()
	sizes := make([]int64, 26)
	for i := range sizes {
		sizes[i] = 1 << 20
	}
	cfg := dlrm.TerabyteConfig(sizes, batch)
	pl := dlrm.PlaceTables(sizes, numGPUs)
	caps, err := costmodel.EstimateCapacities(cfg, pl, 0, gpusim.ClusterConfig{NumGPUs: numGPUs})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := costmodel.NewCostModel(costmodel.AnalyticPredictor(), caps)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, pl, cm
}

func fusedPlanFor(t testing.TB, graphs []*preproc.Graph, samples int) *fusion.Plan {
	t.Helper()
	plan, err := fusion.PlanFusion(graphs, preproc.Shape{Samples: samples, AvgListLen: 3}, fusion.Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestCoRunScheduleHidesLightWorkload(t *testing.T) {
	_, _, cm := testSetup(t, 4, 4096)
	p := preproc.MustStandardPlan(0, nil)
	// A quarter of plan-0's graphs: comfortably within capacity.
	plan := fusedPlanFor(t, p.Graphs[:10], 4096)
	sch, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.PredictedExposed > 1 {
		t.Fatalf("light workload exposed %f µs", sch.PredictedExposed)
	}
	if sch.TotalKernels() < plan.NumKernels {
		t.Fatalf("kernels lost: %d < %d", sch.TotalKernels(), plan.NumKernels)
	}
	if len(sch.Overflow) != 0 {
		t.Fatalf("unexpected overflow: %d", len(sch.Overflow))
	}
}

func TestCoRunScheduleKeepsKernelOrder(t *testing.T) {
	_, _, cm := testSetup(t, 4, 4096)
	p := preproc.MustStandardPlan(1, nil)
	plan := fusedPlanFor(t, p.Graphs, 4096)
	sch, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The scheduled sequence must be the plan's kernel order with only
	// shard splits allowed (prefix naming).
	want := plan.Kernels()
	got := allKernels(sch)
	wi := 0
	for _, k := range got {
		base := strings.TrimSuffix(strings.TrimSuffix(k.Name, "~shard"), "~rest")
		for wi < len(want) && want[wi].Name != base {
			wi++
		}
		if wi == len(want) {
			t.Fatalf("kernel %q out of order", k.Name)
		}
	}
}

func TestCoRunScheduleShards(t *testing.T) {
	_, _, cm := testSetup(t, 2, 4096)
	// One huge fused NGram kernel larger than any single stage capacity.
	g := &preproc.Graph{Name: "big", Ops: []preproc.Op{
		preproc.NewNGram("ng", []string{"cat_0", "cat_1", "cat_2", "cat_3"}, "out", 3, 1000),
	}}
	plan := fusedPlanFor(t, []*preproc.Graph{g}, 65536)
	sch, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.NumShards == 0 {
		t.Fatal("oversized kernel was not sharded")
	}
	// Work conservation across shards (+ overflow).
	var total float64
	for _, k := range allKernels(sch) {
		total += k.Elements
	}
	if math.Abs(total-plan.Kernels()[0].Elements) > 1e-6 {
		t.Fatalf("elements lost in sharding: %f vs %f", total, plan.Kernels()[0].Elements)
	}
}

func TestCoRunScheduleShardingDisabled(t *testing.T) {
	_, _, cm := testSetup(t, 2, 4096)
	g := &preproc.Graph{Name: "big", Ops: []preproc.Op{
		preproc.NewNGram("ng", []string{"cat_0", "cat_1", "cat_2", "cat_3"}, "out", 3, 1000),
	}}
	plan := fusedPlanFor(t, []*preproc.Graph{g}, 65536)
	sch, err := CoRunSchedule(plan, cm, Options{DisableSharding: true})
	if err != nil {
		t.Fatal(err)
	}
	if sch.NumShards != 0 {
		t.Fatal("sharding happened despite DisableSharding")
	}
}

func TestCoRunScheduleOverflow(t *testing.T) {
	_, _, cm := testSetup(t, 2, 4096)
	// Plan 3's full workload on one GPU exceeds one iteration's capacity.
	p := preproc.MustStandardPlan(3, nil)
	plan := fusedPlanFor(t, p.Graphs, 8192)
	sch, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.PredictedExposed <= 0 {
		t.Fatal("overload not detected")
	}
}

func TestCoRunScheduleNilArgs(t *testing.T) {
	if _, err := CoRunSchedule(nil, nil, Options{}); err == nil {
		t.Fatal("nil args accepted")
	}
	// A cost model built without NewCostModel can lack its predictor.
	_, _, cm := testSetup(t, 2, 4096)
	plan := fusedPlanFor(t, preproc.MustStandardPlan(0, nil).Graphs[:4], 4096)
	if _, err := CoRunSchedule(plan, &costmodel.CostModel{Caps: cm.Caps}, Options{}); err == nil {
		t.Fatal("cost model without a predictor accepted")
	}
}

// TestCoRunScheduleShardNames pins the names of split pieces: each
// placed piece is the planned kernel's name plus "~shard", the remainder
// plus "~rest", however many times the remainder is split again.
func TestCoRunScheduleShardNames(t *testing.T) {
	_, _, cm := testSetup(t, 2, 4096)
	g := &preproc.Graph{Name: "big", Ops: []preproc.Op{
		preproc.NewNGram("ng", []string{"cat_0", "cat_1", "cat_2", "cat_3"}, "out", 3, 1000),
	}}
	plan := fusedPlanFor(t, []*preproc.Graph{g}, 65536)
	name := plan.Kernels()[0].Name
	sch, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.NumShards < 2 {
		t.Fatalf("%d shards; the test needs a remainder that is split again", sch.NumShards)
	}
	all := allKernels(sch)
	for i, k := range all {
		want := name + "~shard"
		if i == len(all)-1 {
			want = name + "~rest"
		}
		if k.Name != want {
			t.Fatalf("piece %d named %q, want %q", i, k.Name, want)
		}
	}
}

func TestSequentialSchedule(t *testing.T) {
	ks := []preproc.KernelSpec{{Name: "a", Type: preproc.OpLogit, Elements: 10}}
	s := SequentialSchedule(ks, 5)
	if len(s.PerStage) != 5 || len(s.PerStage[0]) != 1 {
		t.Fatal("sequential schedule wrong")
	}
	s0 := SequentialSchedule(ks, 0)
	if len(s0.Overflow) != 1 {
		t.Fatal("zero-stage schedule should overflow")
	}
}

func buildWork(t testing.TB, cm *costmodel.CostModel, graphsPerGPU [][]*preproc.Graph, samples int) []GPUWork {
	t.Helper()
	work := make([]GPUWork, len(graphsPerGPU))
	for g := range graphsPerGPU {
		plan := fusedPlanFor(t, graphsPerGPU[g], samples)
		sch, err := CoRunSchedule(plan, cm, Options{})
		if err != nil {
			t.Fatal(err)
		}
		work[g] = GPUWork{Schedule: sch, PrepBytes: 1e6, CPUPrepUs: 50}
	}
	return work
}

func splitGraphs(p *preproc.Plan, n int) [][]*preproc.Graph {
	out := make([][]*preproc.Graph, n)
	for i, g := range p.Graphs {
		out[i%n] = append(out[i%n], g)
	}
	return out
}

func TestPipelineOverlapBeatsSequential(t *testing.T) {
	const n = 4
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(1, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	cluster := gpusim.ClusterConfig{NumGPUs: n, Policy: gpusim.FairShare}
	overlapped, err := BuildAndRun(cluster, cfg, pl, work, PipelineOptions{Iterations: 8, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := BuildAndRun(cluster, cfg, pl, work, PipelineOptions{Iterations: 8, SequentialPreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Throughput <= seq.Throughput*1.05 {
		t.Fatalf("overlap %.0f vs sequential %.0f samples/s — no benefit", overlapped.Throughput, seq.Throughput)
	}
	// Overlapped latency should be close to train-only (small exposure).
	if exposedFraction(overlapped) > 0.25 {
		t.Fatalf("exposed fraction %.3f too high", exposedFraction(overlapped))
	}
	if exposedFraction(seq) < exposedFraction(overlapped) {
		t.Fatal("sequential should expose more")
	}
}

func TestPipelineInterleavingHelps(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(1, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)
	// Make data preparation expensive so its placement matters.
	for g := range work {
		work[g].CPUPrepUs = 800
		work[g].PrepBytes = 2e7
	}
	cluster := gpusim.ClusterConfig{NumGPUs: n}
	inter, err := BuildAndRun(cluster, cfg, pl, work, PipelineOptions{Iterations: 10, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	noInter, err := BuildAndRun(cluster, cfg, pl, work, PipelineOptions{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if inter.Throughput < noInter.Throughput {
		t.Fatalf("interleaving hurt: %f vs %f", inter.Throughput, noInter.Throughput)
	}
}

func TestPipelineStatsShape(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)
	stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IterEnds) != 6 {
		t.Fatalf("iter ends = %d", len(stats.IterEnds))
	}
	for i := 1; i < len(stats.IterEnds); i++ {
		if stats.IterEnds[i] <= stats.IterEnds[i-1] {
			t.Fatal("iterations not monotone")
		}
	}
	if stats.Throughput <= 0 || stats.SteadyIterLatency <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.TrainOnlyLatency <= 0 {
		t.Fatal("train-only latency missing")
	}
}

func TestPipelineInputCommDelays(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)
	base, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	for g := range work {
		work[g].InputCommBytes = 5e8 // 500 MB per batch: clearly visible
	}
	comm, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if comm.Throughput >= base.Throughput {
		t.Fatal("input communication had no cost")
	}
}

func TestPipelineCPUPreprocBaseline(t *testing.T) {
	const n = 2
	cfg, pl, _ := testSetup(t, n, 4096)
	work := make([]GPUWork, n)
	for g := range work {
		work[g] = GPUWork{CPUPreprocUs: 50000, CPUWorkers: 8, PrepBytes: 1e6}
	}
	stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n, HostCores: 16}, cfg, pl, work, PipelineOptions{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	// CPU preprocessing (50 ms per batch) dominates the iteration.
	if stats.SteadyIterLatency < 40000 {
		t.Fatalf("CPU-bound pipeline too fast: %f", stats.SteadyIterLatency)
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg, pl, _ := testSetup(t, 2, 4096)
	if _, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: 2}, cfg, pl, make([]GPUWork, 3), PipelineOptions{}); err == nil {
		t.Fatal("work/GPU mismatch accepted")
	}
	if _, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: 4}, cfg, pl, make([]GPUWork, 4), PipelineOptions{}); err == nil {
		t.Fatal("placement/cluster mismatch accepted")
	}
}

// exposedFraction is (steady latency − train-only latency) / train-only
// latency: how much preprocessing remained exposed.
func exposedFraction(p *PipelineStats) float64 {
	if p.TrainOnlyLatency <= 0 {
		return 0
	}
	f := (p.SteadyIterLatency - p.TrainOnlyLatency) / p.TrainOnlyLatency
	if f < 0 {
		return 0
	}
	return f
}
