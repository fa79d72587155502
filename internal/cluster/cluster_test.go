package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rap/internal/rap"
	"rap/internal/sched"
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
	nan := topo.Uniform(2, 2)
	nan.FabricGBs = math.NaN()
	if _, err := New(Config{Topo: nan, Policy: Pack{}}); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("NaN fabric bandwidth: error %v, want a non-finite rejection", err)
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
	_, err = s.Simulate([]Job{kaggleJob(3, 0, 2, 5), kaggleJob(7, 0, 2, 5), kaggleJob(7, 10, 2, 5)})
	if err == nil || !strings.Contains(err.Error(), "job ID 7 appears more than once") {
		t.Fatalf("duplicate job ID: got %v", err)
	}
	// Plan failures name the job they belong to.
	for _, c := range []struct {
		shape JobShape
		want  string
	}{
		{JobShape{Dataset: rap.Terabyte, PlanIdx: 1, PerGPUBatch: 0, GPUs: 2, Iterations: 5},
			"cluster: job 4 (terabyte plan 1, batch 0, 2 GPUs): dlrm: criteo-terabyte: BatchSize must be positive"},
		{JobShape{Dataset: rap.Kaggle, PlanIdx: 9, PerGPUBatch: 2048, GPUs: 2, Iterations: 5},
			"cluster: job 4 (kaggle plan 9, batch 2048, 2 GPUs): preproc: no standard plan 9 (want 0-3)"},
		{JobShape{Dataset: "x", PlanIdx: 0, PerGPUBatch: 2048, GPUs: 2, Iterations: 5},
			`cluster: job 4 (x plan 0, batch 2048, 2 GPUs): rap: unknown dataset "x"`},
	} {
		_, err := s.Simulate([]Job{kaggleJob(3, 0, 2, 5), {ID: 4, ArrivalUs: 0, Shape: c.shape}})
		if err == nil || err.Error() != c.want {
			t.Fatalf("%+v: got %v, want %q", c.shape, err, c.want)
		}
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
	// An allocation the fleet rejects names the policy and the job too,
	// from a cold plan cache (job 0 resolves at its start instant) and
	// from a warm one (job 0 is still pending when job 1 arrives, and
	// resolves before the error surfaces); both loops agree.
	for _, c := range []struct {
		gpus []int
		want string
	}{
		{[]int{99, 2}, "cluster: policy after-first placed job 1 on an invalid allocation: topo: subset gpu 99 out of range [0,4)"},
		{[]int{2, 2}, "cluster: policy after-first placed job 1 on an invalid allocation: topo: subset lists gpu 2 twice"},
	} {
		pol := afterFirst{c.gpus}
		jobs := []Job{kaggleJob(0, 0, 2, 40), kaggleJob(1, 10, 2, 5)}
		if _, err := matchReference(t, smallFleet(), pol, jobs); err == nil || err.Error() != c.want {
			t.Fatalf("%v: got %v, want %q", c.gpus, err, c.want)
		}
		warm, err := New(Config{Topo: smallFleet(), Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Simulate(jobs[:1]); err != nil {
			t.Fatal(err)
		}
		var resolved []int
		warm.onResolve = func(pending []pendingJob) {
			for _, p := range pending {
				resolved = append(resolved, p.job.ID)
			}
		}
		if _, err := warm.Simulate(jobs); err == nil || err.Error() != c.want {
			t.Fatalf("%v warm: got %v, want %q", c.gpus, err, c.want)
		}
		if len(resolved) != 1 || resolved[0] != 0 {
			t.Fatalf("%v warm: resolved jobs %v before the error, want job 0 pending at job 1's arrival", c.gpus, resolved)
		}
	}
}

// afterFirst is a faulty policy: while GPU 0 is free it places like
// FirstFit, and after that it returns gpus.
type afterFirst struct{ gpus []int }

func (afterFirst) Name() string { return "after-first" }
func (p afterFirst) Place(v *FleetView, want int) []int {
	if v.Free[0] {
		return FirstFit{}.Place(v, want)
	}
	return p.gpus
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

// TestEndTimesOnlyMatchesFullRun: the end-times-only run a fleet job
// makes reports what a run of the same plan that keeps op results
// reports, bit for bit, for every menu shape on a congested 2-node
// subset; it keeps no op results. Both runs stamp their iterations from the fourth
// on (sched.BuildAndRun); sched.TestStampedFleetShapesMatchBuilt holds
// those stamps to the iterations built.
func TestEndTimesOnlyMatchesFullRun(t *testing.T) {
	// outcome is a run's figures the two modes must share, floats as bits.
	type outcome struct {
		Makespan, Steady, Throughput uint64
		Events                       int
		IterEnds                     []uint64
	}
	outcomeOf := func(st *sched.PipelineStats) outcome {
		o := outcome{
			Makespan:   math.Float64bits(st.Result.Makespan),
			Steady:     math.Float64bits(st.SteadyIterLatency),
			Throughput: math.Float64bits(st.Throughput),
			Events:     st.Result.Events,
		}
		for _, e := range st.IterEnds {
			o.IterEnds = append(o.IterEnds, math.Float64bits(e))
		}
		return o
	}
	const iters = 8
	for _, shape := range shapeMenu {
		ps, err := buildPlan(shape)
		if err != nil {
			t.Fatal(err)
		}
		if !ps.plan.Cluster.EndTimesOnly {
			t.Fatalf("%+v: fleet plan keeps full records", shape)
		}
		full := *ps.plan
		full.Cluster.EndTimesOnly = false
		nodeOf := make([]int, shape.GPUs)
		for g := range nodeOf {
			nodeOf[g] = g * 2 / shape.GPUs
		}
		congested, err := topo.FromNodeOf(nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		congested.FabricGBs, congested.Oversub = 100, 4
		scale := []float64{0.5, 1}
		lean, err := ps.fw.ExecuteTopo(ps.plan, iters, congested, scale)
		if err != nil {
			t.Fatalf("%+v: %v", shape, err)
		}
		want, err := ps.fw.ExecuteTopo(&full, iters, congested, scale)
		if err != nil {
			t.Fatalf("%+v full: %v", shape, err)
		}
		if len(lean.Result.Ops) != 0 || len(want.Result.Ops) == 0 {
			t.Fatalf("%+v: %d op results end-times-only, %d full", shape, len(lean.Result.Ops), len(want.Result.Ops))
		}
		if got, want := outcomeOf(lean), outcomeOf(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: end-times-only run %+v, full run %+v", shape, got, want)
		}
	}
}

// fuzzPlans is the plan cache every FuzzSimulate simulator shares.
// Plans are topology-free, so one per shape serves every fleet and
// policy.
var fuzzPlans = map[JobShape]*plannedShape{}

// FuzzSimulate runs random traces of up to 6 Kaggle jobs on 2–3 nodes
// × 2–4 GPUs under both policies. Simulate must agree with
// simulateReference: the same report digest, or the same error text.
// A report must pass checkFleetReport, and relabelling the job IDs by
// an order-preserving map must give the same report up to the IDs.
// burst shapes the trace: its low two bits pick Poisson arrivals (0),
// every job at one instant (1), two jobs at one instant and the rest
// arriving exactly when the first of them ends (2, a completion tied
// with arrivals), or the rest arriving at distinct instants before the
// first job's lower bound, so that pending jobs span several instants
// (3); bit 2 gives a job of the burst a plan that fails; bit 3 plans
// from a cold cache.
// `go test -run '^$' -fuzz FuzzSimulate -fuzztime 60s ./internal/cluster`.
func FuzzSimulate(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*5), uint8(0))
	}
	for seed, burst := range []uint8{1, 9, 2, 10, 5, 6, 14, 13} {
		f.Add(int64(8+seed), uint8(seed*7), burst)
	}
	for seed, burst := range []uint8{3, 3, 3, 11, 7} {
		f.Add(int64(16+seed), uint8(seed*5+1), burst)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, burst uint8) {
		fleet := topo.Uniform(2+int(shape%2), 2+int(shape/2%3))
		fleet.FabricGBs = 50
		fleet.Oversub = 2
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		if burst%4 != 0 {
			n = max(n, 3)
		}
		jobs := make([]Job, n)
		at, id := 0.0, rng.Intn(20)-10
		for i := range jobs {
			if rng.Intn(3) > 0 { // else the job arrives with the previous one
				at += rng.ExpFloat64() * 400
			}
			id += 1 + rng.Intn(3)
			jobs[i] = kaggleJob(id, at, 1+rng.Intn(4), 1+rng.Intn(12))
		}
		switch burst % 4 {
		case 1:
			for i := range jobs {
				jobs[i].ArrivalUs = jobs[0].ArrivalUs
			}
		case 2:
			// Job 0 starts first on an empty fleet, so it ends when
			// it ends alone.
			jobs[1].ArrivalUs = jobs[0].ArrivalUs
			alone, err := simulateReference(fuzzSimulator(t, fleet, Pack{}, false), jobs[:1])
			if err != nil {
				t.Fatal(err)
			}
			for i := range jobs[2:] {
				jobs[2+i].ArrivalUs = alone.Results[0].EndUs
			}
		case 3:
			// Job 0 starts first on an empty fleet, at its arrival;
			// the others arrive at distinct instants before its bound.
			ps, err := fuzzSimulator(t, fleet, Pack{}, false).planFor(jobs[0].Shape)
			if err != nil {
				t.Fatal(err)
			}
			lo := ps.minDuration(jobs[0].Shape.Iterations)
			for i := range jobs[1:] {
				jobs[1+i].ArrivalUs = jobs[0].ArrivalUs + lo*float64(i+1)/float64(len(jobs))
			}
		}
		failing := burst&4 != 0 && len(jobs) > 2
		if failing {
			jobs[len(jobs)-1-rng.Intn(len(jobs)-2)].Shape.PlanIdx = 9
		}
		// Simulate orders jobs by arrival itself.
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

		// relabel maps the IDs, in increasing order, to increasing IDs
		// with random gaps; back inverts it.
		ids := make([]int, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID
		}
		sort.Ints(ids)
		relabel, back := map[int]int{}, map[int]int{}
		next := rng.Intn(1000) - 500
		for _, old := range ids {
			next += 1 + rng.Intn(50)
			relabel[old], back[next] = next, old
		}
		renamed := append([]Job(nil), jobs...)
		for i := range renamed {
			renamed[i].ID = relabel[renamed[i].ID]
		}

		for _, pol := range []Policy{Pack{}, FirstFit{}} {
			rep, err := fuzzSimulator(t, fleet, pol, burst&8 != 0).Simulate(jobs)
			want, wantErr := simulateReference(fuzzSimulator(t, fleet, pol, false), jobs)
			if failing {
				// Every job starts eventually, so the plan-9 job fails
				// both loops, and with the same text.
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: Simulate error %v, reference error %v", pol.Name(), err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
			if wantErr != nil {
				t.Fatalf("%s: reference: %v", pol.Name(), wantErr)
			}
			if rep.Digest() != want.Digest() {
				t.Fatalf("%s: Simulate and the reference disagree:\n%+v\nvs\n%+v", pol.Name(), rep, want)
			}
			checkFleetReport(t, rep, jobs, fleet.NumGPUs())
			got, err := fuzzSimulator(t, fleet, pol, false).Simulate(renamed)
			if err != nil {
				t.Fatalf("%s relabelled: %v", pol.Name(), err)
			}
			for i := range got.Results {
				got.Results[i].ID = back[got.Results[i].ID]
			}
			if !reflect.DeepEqual(got, rep) {
				t.Fatalf("%s: relabelling job IDs changed the report:\n%+v\nvs\n%+v", pol.Name(), got, rep)
			}
		}
	})
}

// fuzzSimulator returns a simulator over fleet that shares fuzzPlans,
// or starts from an empty plan cache when cold is set.
func fuzzSimulator(t *testing.T, fleet *topo.Topology, pol Policy, cold bool) *Simulator {
	t.Helper()
	s, err := New(Config{Topo: fleet, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !cold {
		s.planned = fuzzPlans
	}
	return s
}

// checkFleetReport checks a report's per-job invariants: one result per
// job in ID order, carrying the job's arrival and GPU count; each job
// starts no earlier than it arrives and runs for a positive time; its
// queueing delay is its start minus its arrival and its JCT the delay
// plus its run time; starts follow arrival order (FIFO, ties by ID);
// and at no instant do the running jobs hold more GPUs than the fleet.
func checkFleetReport(t *testing.T, rep *Report, jobs []Job, fleetGPUs int) {
	t.Helper()
	byID := map[int]Job{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	if rep.Jobs != len(jobs) || len(rep.Results) != len(jobs) {
		t.Fatalf("%s: %d jobs, %d results for %d submitted", rep.Policy, rep.Jobs, len(rep.Results), len(jobs))
	}
	for i, jr := range rep.Results {
		j, ok := byID[jr.ID]
		switch {
		case !ok || (i > 0 && jr.ID <= rep.Results[i-1].ID):
			t.Fatalf("%s: result %d is job %d: not a submitted job in ID order", rep.Policy, i, jr.ID)
		case jr.ArrivalUs != j.ArrivalUs || jr.GPUs != j.Shape.GPUs:
			t.Fatalf("%s: job %d reports arrival %v on %d GPUs, submitted %v on %d", rep.Policy, jr.ID, jr.ArrivalUs, jr.GPUs, j.ArrivalUs, j.Shape.GPUs)
		case jr.StartUs < jr.ArrivalUs:
			t.Fatalf("%s: job %d starts at %v before arriving at %v", rep.Policy, jr.ID, jr.StartUs, jr.ArrivalUs)
		case !(jr.EndUs > jr.StartUs):
			t.Fatalf("%s: job %d runs [%v, %v]", rep.Policy, jr.ID, jr.StartUs, jr.EndUs)
		case jr.QueueUs != jr.StartUs-jr.ArrivalUs:
			t.Fatalf("%s: job %d queued %v, start − arrival %v", rep.Policy, jr.ID, jr.QueueUs, jr.StartUs-jr.ArrivalUs)
		case math.Abs(jr.JCTUs-(jr.QueueUs+(jr.EndUs-jr.StartUs))) > 1e-9*jr.EndUs:
			t.Fatalf("%s: job %d JCT %v ≠ queue %v + run %v", rep.Policy, jr.ID, jr.JCTUs, jr.QueueUs, jr.EndUs-jr.StartUs)
		}
	}
	fifo := append([]JobResult(nil), rep.Results...)
	sort.Slice(fifo, func(a, b int) bool {
		if fifo[a].ArrivalUs != fifo[b].ArrivalUs {
			return fifo[a].ArrivalUs < fifo[b].ArrivalUs
		}
		return fifo[a].ID < fifo[b].ID
	})
	for i := 1; i < len(fifo); i++ {
		if fifo[i].StartUs < fifo[i-1].StartUs {
			t.Fatalf("%s: job %d starts at %v, before job %d that arrived first (%v)", rep.Policy, fifo[i].ID, fifo[i].StartUs, fifo[i-1].ID, fifo[i-1].StartUs)
		}
	}
	// Occupancy only rises at a start, so checking every start instant
	// checks every instant; a job ending at t has released its GPUs.
	for _, a := range rep.Results {
		held := 0
		for _, b := range rep.Results {
			if b.StartUs <= a.StartUs && a.StartUs < b.EndUs {
				held += b.GPUs
			}
		}
		if held > fleetGPUs {
			t.Fatalf("%s: %d GPUs held at %v on a %d-GPU fleet", rep.Policy, held, a.StartUs, fleetGPUs)
		}
	}
}
