package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rap/internal/rap"
	"rap/internal/topo"
)

// smallFleet is a 2-node × 2-GPU fleet with a constrained fabric.
func smallFleet() *topo.Topology {
	tp := topo.Uniform(2, 2)
	tp.FabricGBs = 50
	tp.Oversub = 2
	return tp
}

// kaggleJob is the cheapest shape to plan and simulate.
func kaggleJob(id int, arrival float64, gpus, iters int) Job {
	return Job{ID: id, ArrivalUs: arrival, Shape: JobShape{
		Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 2048, GPUs: gpus, Iterations: iters,
	}}
}

func TestGenerateJobsDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 5, NumJobs: 20, MeanGapUs: 1000, MaxGPUs: 8}
	a, err := GenerateJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different job traces")
	}
	cfg.Seed = 6
	c, err := GenerateJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical job traces")
	}
	for i, j := range a {
		if j.Shape.GPUs > 8 {
			t.Fatalf("job %d exceeds MaxGPUs: %d", i, j.Shape.GPUs)
		}
		if i > 0 && j.ArrivalUs < a[i-1].ArrivalUs {
			t.Fatalf("arrivals not monotone at job %d", i)
		}
		if j.Shape.Iterations < 1 {
			t.Fatalf("job %d has %d iterations", i, j.Shape.Iterations)
		}
	}
	if _, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 0}); err == nil {
		t.Fatal("NumJobs 0 accepted")
	}
	if _, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 1, MaxGPUs: 1}); err == nil {
		t.Fatal("MaxGPUs below the smallest menu shape accepted")
	}
	if _, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 1, MeanGapUs: -5}); err == nil {
		t.Fatal("negative arrival gap accepted")
	}
	for _, gap := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 1, MeanGapUs: gap}); err == nil {
			t.Fatalf("arrival gap %v accepted", gap)
		}
	}
	def, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 3, MeanGapUs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, gap := range []float64{0, math.Copysign(0, -1)} {
		got, err := GenerateJobs(GenConfig{Seed: 1, NumJobs: 3, MeanGapUs: gap})
		if err != nil || !reflect.DeepEqual(got, def) {
			t.Fatalf("arrival gap %v must take the 2000 µs default: err %v", gap, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Policy: Pack{}}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := New(Config{Topo: smallFleet()}); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad := topo.Uniform(2, 2)
	bad.Oversub = 0.25
	if _, err := New(Config{Topo: bad, Policy: Pack{}}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

// TestSimulateDeterministic: the digest is bit-stable across fresh
// simulators and across reuse of one simulator's warm plan cache.
func TestSimulateDeterministic(t *testing.T) {
	jobs := []Job{
		kaggleJob(0, 0, 2, 12),
		kaggleJob(1, 50, 2, 10),
		kaggleJob(2, 60, 4, 9),
		kaggleJob(3, 70, 2, 20),
	}
	digest := func(s *Simulator) string {
		rep, err := s.Simulate(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Digest()
	}
	s1, err := New(Config{Topo: smallFleet(), Policy: Pack{}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Topo: smallFleet(), Policy: Pack{}})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := digest(s1), digest(s2)
	if d1 != d2 {
		t.Fatalf("fresh simulators disagree: %s vs %s", d1[:12], d2[:12])
	}
	if d3 := digest(s1); d3 != d1 {
		t.Fatalf("warm plan cache changed the digest: %s vs %s", d3[:12], d1[:12])
	}
}

// TestFIFOQueueing: with more concurrent demand than GPUs, later jobs
// queue, starts stay in arrival order (no backfill), and the report's
// aggregates are consistent.
func TestFIFOQueueing(t *testing.T) {
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, kaggleJob(i, float64(i), 2, 10+i))
	}
	s, err := New(Config{Topo: smallFleet(), Policy: Pack{}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Simulate(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 6 || len(rep.Results) != 6 {
		t.Fatalf("expected 6 results, got %d", len(rep.Results))
	}
	queued := 0
	for i, jr := range rep.Results {
		if jr.ID != i {
			t.Fatalf("results not in ID order: %d at %d", jr.ID, i)
		}
		if jr.StartUs < jr.ArrivalUs {
			t.Fatalf("job %d starts before it arrives", jr.ID)
		}
		if !(jr.EndUs > jr.StartUs) {
			t.Fatalf("job %d has no duration", jr.ID)
		}
		if jr.QueueUs > 0 {
			queued++
		}
		if i > 0 && rep.Results[i].StartUs < rep.Results[i-1].StartUs {
			t.Fatalf("FIFO violated: job %d starts before job %d", i, i-1)
		}
		if jr.EndUs > rep.MakespanUs {
			t.Fatalf("job %d ends after the makespan", jr.ID)
		}
	}
	if queued == 0 {
		t.Fatal("6 two-GPU jobs on 4 GPUs and nobody queued")
	}
	if !(rep.GPUUtil > 0 && rep.GPUUtil <= 1) {
		t.Fatalf("GPU utilization %g outside (0,1]", rep.GPUUtil)
	}
	if !(rep.AvgQueueUs > 0) || rep.MaxQueueUs < rep.AvgQueueUs {
		t.Fatalf("queue stats inconsistent: avg %g max %g", rep.AvgQueueUs, rep.MaxQueueUs)
	}
	if !(rep.AvgJCTUs > rep.AvgQueueUs) {
		t.Fatalf("JCT %g must exceed queueing %g", rep.AvgJCTUs, rep.AvgQueueUs)
	}
}

// TestPackBeatsFirstFit: a 2-GPU job occupying the head of node 0
// forces first-fit to split the following 4-GPU job across both nodes;
// packing keeps it on node 1. The split job pays the oversubscribed
// fabric for its all-to-all traffic and finishes later.
func TestPackBeatsFirstFit(t *testing.T) {
	fleet := topo.Uniform(2, 4)
	fleet.FabricGBs = 20
	fleet.Oversub = 4
	jobs := []Job{
		kaggleJob(0, 0, 2, 12),
		kaggleJob(1, 0, 4, 12),
	}
	runWith := func(p Policy) *Report {
		s, err := New(Config{Topo: fleet, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Simulate(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	pack := runWith(Pack{})
	naive := runWith(FirstFit{})
	if pack.Results[1].Nodes != 1 {
		t.Fatalf("pack split the 4-GPU job across %d nodes", pack.Results[1].Nodes)
	}
	if naive.Results[1].Nodes != 2 {
		t.Fatalf("first-fit should split the 4-GPU job, spans %d node(s)", naive.Results[1].Nodes)
	}
	if !(naive.Results[1].JCTUs > pack.Results[1].JCTUs) {
		t.Fatalf("split job should be slower: first-fit JCT %g <= pack %g",
			naive.Results[1].JCTUs, pack.Results[1].JCTUs)
	}
	if !(naive.AvgJCTUs > pack.AvgJCTUs) {
		t.Fatalf("first-fit avg JCT %g <= pack %g", naive.AvgJCTUs, pack.AvgJCTUs)
	}
}

// rejectAll is a policy that never places anything.
type rejectAll struct{}

func (rejectAll) Name() string                { return "reject-all" }
func (rejectAll) Place(*FleetView, int) []int { return nil }

// lowestN is a faulty policy that ignores the free set and always
// returns GPUs 0..want-1.
type lowestN struct{}

func (lowestN) Name() string { return "lowest-n" }
func (lowestN) Place(_ *FleetView, want int) []int {
	out := make([]int, want)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSimulateErrors(t *testing.T) {
	s, err := New(Config{Topo: smallFleet(), Policy: Pack{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Simulate([]Job{kaggleJob(0, 0, 8, 10)}); err == nil {
		t.Fatal("job larger than the fleet accepted")
	}
	if _, err := s.Simulate([]Job{kaggleJob(0, 0, 2, 0)}); err == nil {
		t.Fatal("zero-iteration job accepted")
	}
	if _, err := s.Simulate([]Job{kaggleJob(0, -1, 2, 5)}); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if _, err := s.Simulate([]Job{kaggleJob(0, math.NaN(), 2, 5)}); err == nil {
		t.Fatal("NaN arrival accepted")
	}
	if _, err := s.Simulate([]Job{kaggleJob(0, math.Inf(1), 2, 5)}); err == nil {
		t.Fatal("+Inf arrival accepted")
	}
	stuck, err := New(Config{Topo: smallFleet(), Policy: rejectAll{}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = stuck.Simulate([]Job{kaggleJob(0, 0, 2, 5)})
	if err == nil || !strings.Contains(err.Error(), "cannot place") {
		t.Fatalf("unplaceable head of queue: got %v", err)
	}
	greedy, err := New(Config{Topo: smallFleet(), Policy: lowestN{}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = greedy.Simulate([]Job{kaggleJob(0, 0, 2, 5), kaggleJob(1, 0, 2, 5)})
	if err == nil || !strings.Contains(err.Error(), "policy lowest-n placed job 1 on GPU 0") {
		t.Fatalf("double-booked GPU: got %v", err)
	}
}

// TestTenantContention: a cross-node job sharing its nodes with other
// tenants sees a congested fabric and runs longer than the same job on
// an otherwise idle fleet.
func TestTenantContention(t *testing.T) {
	fleet := topo.Uniform(2, 4)
	fleet.FabricGBs = 20
	fleet.Oversub = 2

	duration := func(jobs []Job, id int) float64 {
		s, err := New(Config{Topo: fleet, Policy: FirstFit{}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Simulate(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range rep.Results {
			if jr.ID == id {
				return jr.EndUs - jr.StartUs
			}
		}
		t.Fatalf("job %d missing from report", id)
		return 0
	}
	// A long 2-GPU tenant occupies the head of node 0, so first-fit
	// splits the 4-GPU job as {2,3} on node 0 + {4,5} on node 1, with
	// the tenant congesting node 0's fabric link.
	split := []Job{
		kaggleJob(0, 0, 2, 400), // tenant on node 0
		kaggleJob(1, 0, 4, 12),  // splits across nodes 0 and 1
	}
	shared := duration(split, 1)

	// Control: the identical 2+2 split geometry with no co-tenant — an
	// idle fleet whose node 0 simply has only 2 GPUs, so the subset's
	// node pattern matches the shared run exactly.
	uneven, err := topo.FromNodeOf([]int{0, 0, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	uneven.FabricGBs = 20
	uneven.Oversub = 2
	s, err := New(Config{Topo: uneven, Policy: FirstFit{}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Simulate([]Job{kaggleJob(1, 0, 4, 12)})
	if err != nil {
		t.Fatal(err)
	}
	alone := rep.Results[0].EndUs - rep.Results[0].StartUs
	if rep.Results[0].Nodes != 2 {
		t.Fatalf("control job spans %d node(s), want 2", rep.Results[0].Nodes)
	}
	if !(shared > alone) {
		t.Fatalf("co-tenant fabric congestion should slow the job: %g <= %g", shared, alone)
	}
}
