// Package cluster is the multi-tenant fleet simulator: thousands of
// simulated GPUs grouped into NVSwitch nodes behind an oversubscribed
// inter-node fabric (internal/topo), shared by a trace of DLRM training
// jobs. Each job is planned once by the RAP framework (plans are cached
// per workload shape), placed by a pluggable policy — RAP-aware packing
// versus naive first-fit — and simulated with gpusim on exactly the
// fleet slice it was allocated, including the fabric contention its
// node span and its co-tenants impose. The output is a Report of
// per-job queueing delay and completion time plus fleet utilization,
// hashed by exact float bit patterns: the same topology, policy, and
// job trace always produce the identical digest.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
	"rap/internal/rap"
	"rap/internal/sched"
	"rap/internal/topo"
)

// Config parameterizes a fleet simulator.
type Config struct {
	// Topo is the fleet: GPUs grouped into NVSwitch nodes behind the
	// shared fabric. Required.
	Topo *topo.Topology
	// Policy places queued jobs onto free GPUs. Required.
	Policy Policy
}

// simIterations caps how many pipeline iterations each job is actually
// simulated for; longer jobs extrapolate the remainder at the measured
// steady-state iteration latency.
const simIterations = 8

// workloadSeed feeds per-shape workload synthesis.
const workloadSeed = 1

// plannedShape is one workload shape's cached planning artifact: the
// framework (whose solve memo answers repeat fusion solves) plus the built
// execution plan. The plan is topology-free — ExecuteTopo binds it to
// each allocation's fleet slice at simulation time, and simulations of
// one plan may run concurrently.
type plannedShape struct {
	fw   *rap.Framework
	plan *rap.ExecPlan
	// iterSoloUs is the plan's IterationSoloLatency: no simulated
	// iteration ends sooner than that after the one before it
	// (DESIGN.md §10).
	iterSoloUs float64 //rap:unit us
	// iterOps is about the ops one simulated iteration adds: every
	// GPU's training stages and preprocessing kernels.
	iterOps int
}

// boundSlack is the ε of minDuration's bound: the share of a job's
// solo-latency floor that the engine's completion tolerance and float
// rounding may take off a simulated duration. Each op of an
// iteration's stage chain may end up to 2·timeEps/minSpeed = 2e-6 µs
// early (gpusim's soloTol), a chain holds dlrm.NumStages ops, and every
// iteration's chain has a kernel stage of at least the 5 µs launch
// overhead, so ε only needs to exceed 2e-6·NumStages/5, below 1e-5;
// TestBoundSlackCoversTolerance checks that.
const boundSlack = 1e-4

// minDuration is the shortest run a job of iters iterations on the plan
// can simulate to: iters × IterationSoloLatency × (1 − ε). DESIGN.md
// §10 proves it.
//
//rap:unit return us
func (ps *plannedShape) minDuration(iters int) float64 {
	return float64(iters) * ps.iterSoloUs * (1 - boundSlack)
}

// Simulator runs job traces over one fleet. The per-shape plan cache
// persists across Simulate calls; simulation state does not.
type Simulator struct {
	cfg     Config
	planned map[JobShape]*plannedShape
	// onResolve, when set, sees each batch of pending jobs before it
	// resolves; tests use it to observe the window.
	onResolve func([]pendingJob)
}

// New validates the configuration and builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("cluster: config needs a topology")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: config needs a placement policy")
	}
	return &Simulator{cfg: cfg, planned: make(map[JobShape]*plannedShape)}, nil
}

// planKey is a shape's plan-cache key: the shape with its iterations
// zeroed.
func planKey(shape JobShape) JobShape {
	shape.Iterations = 0
	return shape
}

// buildPlan plans a shape with a framework of its own and touches no
// Simulator state, so different shapes build concurrently. The plan's
// cluster config sets EndTimesOnly: a job simulation reads only the
// makespan and the iteration ends, so its runs keep no per-op results
// or start times. Its kernels and op names are lowered once
// (sched.LowerWork), for every run of the plan to share.
func buildPlan(shape JobShape) (*plannedShape, error) {
	w, err := rap.NewWorkload(shape.Dataset, shape.PlanIdx, shape.PerGPUBatch, workloadSeed)
	if err != nil {
		return nil, err
	}
	fw := rap.New(w, gpusim.ClusterConfig{NumGPUs: shape.GPUs, HostCores: rap.HostCores, EndTimesOnly: true})
	plan, err := fw.BuildPlan(rap.BuildOptions{})
	if err != nil {
		return nil, err
	}
	plan.Work = sched.LowerWork(plan.Work)
	ps := &plannedShape{fw: fw, plan: plan, iterOps: shape.GPUs * dlrm.NumStages,
		iterSoloUs: w.Model.IterationSoloLatency(plan.Placement, plan.Cluster.WithDefaults().LinkGBs)}
	for _, wk := range plan.Work {
		if wk.Schedule != nil {
			ps.iterOps += wk.Schedule.TotalKernels()
		}
	}
	return ps, nil
}

// jobErr names the job a plan or simulation error belongs to.
func jobErr(j Job, err error) error {
	sh := j.Shape
	return fmt.Errorf("cluster: job %d (%s plan %d, batch %d, %d GPUs): %w",
		j.ID, sh.Dataset, sh.PlanIdx, sh.PerGPUBatch, sh.GPUs, err)
}

// runningJob is one active allocation in the fleet event loop.
type runningJob struct {
	res   JobResult
	alloc []int
	nodes []int // distinct fleet nodes, first-appearance order
}

// durKey identifies a job simulation up to result equality: the shape's
// plan inputs, the simulated iteration count, the allocation's
// node-assignment pattern (Subset renumbers nodes by first appearance,
// so the pattern fully determines the subset topology), and the
// background-tenant scale per subset node.
type durKey struct {
	shape    JobShape // Iterations zeroed
	simIters int
	pattern  string
	scales   string
}

// durEntry caches what one simulation measured.
type durEntry struct {
	makespanUs float64 //rap:unit us
	steadyUs   float64 //rap:unit us
}

// jobDuration extrapolates the run time of a job started at startUs
// from its simulation: the simulated makespan plus the unsimulated
// iterations at the steady latency. A job that would not end at a
// finite time strictly after startUs is an error: a started job must
// end after its start instant, which is what lets same-instant jobs
// resolve together (see Simulate). A positive duration is not enough,
// as it can round away against a large start time.
//
//rap:unit startUs us
//rap:unit return us
func jobDuration(j Job, startUs float64, simIters int, ent durEntry) (float64, error) {
	dur := ent.makespanUs + float64(j.Shape.Iterations-simIters)*ent.steadyUs
	if end := startUs + dur; !(end > startUs) || math.IsInf(end, 1) {
		return 0, jobErr(j, fmt.Errorf("simulated duration %g µs from start %g µs does not end at a later, finite time", dur, startUs))
	}
	return dur, nil
}

// pendingJob is a started job whose plan and simulation wait until the
// clock could reach its end.
type pendingJob struct {
	job     Job
	startUs float64 //rap:unit us
	// boundUs is the earliest the job can end: its start plus
	// minDuration when its plan was cached at its start, else the start
	// itself (it ends strictly later).
	boundUs  float64 //rap:unit us
	simIters int
	key      durKey
	sub      *topo.Topology
	scale    []float64
}

// reachedBy reports whether the clock moving to nextUs could reach or
// pass the job's end: nextUs is past the job's start instant and not
// below its bound.
//
//rap:unit nextUs us
func (p pendingJob) reachedBy(nextUs float64) bool {
	return nextUs > p.startUs && nextUs >= p.boundUs
}

// maxInFlightOps caps the ops of the simulations a resolve runs at
// once. An op costs an end-times-only run about 60 bytes (DESIGN.md
// §5), so the cap is about 9 MB. Two of the fleet benchmark's largest
// runs (107,616 ops each) at once raised its peak RSS by a fifth; one
// of them beside smaller runs fits.
const maxInFlightOps = 150_000

// planTask is one shape's plan in a resolve: cached, or built by the
// task with a Framework of its own.
type planTask struct {
	shape JobShape
	ps    *plannedShape
	err   error
	built bool // true once ps and err are set, under the resolve's lock
}

// simTask is one distinct uncached simulation of a resolve: the first
// pending job with its durKey, its plan, and what the run measured.
type simTask struct {
	p    *pendingJob
	plan *planTask
	ent  durEntry
	err  error
}

// resolveTask is a plan to build or a simulation to run, and whether
// a goroutine took it.
type resolveTask struct {
	plan  *planTask
	sim   *simTask
	taken bool
}

// start reports whether the task can start beside running tasks
// holding inFlight ops, and the ops it holds: a plan task always can,
// holding none; a simulation once its plan is built, when its ops fit
// within maxInFlightOps or nothing runs. A simulation whose plan failed
// holds none and runs nothing.
func (t *resolveTask) start(inFlight int) (ok bool, ops int) {
	if t.sim == nil {
		return true, 0
	}
	if !t.sim.plan.built {
		return false, 0
	}
	if ps := t.sim.plan.ps; ps != nil {
		ops = t.sim.p.simIters * ps.iterOps
	}
	return inFlight == 0 || inFlight+ops <= maxInFlightOps, ops
}

// run builds the task's plan or runs its simulation.
func (t *resolveTask) run() {
	if t.sim == nil {
		t.plan.ps, t.plan.err = buildPlan(t.plan.shape)
		return
	}
	ps := t.sim.plan.ps
	if ps == nil {
		return
	}
	stats, err := ps.fw.ExecuteTopo(ps.plan, t.sim.p.simIters, t.sim.p.sub, t.sim.p.scale)
	if err != nil {
		t.sim.err = err
		return
	}
	t.sim.ent = durEntry{makespanUs: stats.Result.Makespan, steadyUs: stats.SteadyIterLatency}
}

// runTasks runs every task on up to GOMAXPROCS goroutines and returns
// when all have run. A goroutine takes the first task not yet taken
// that can start (resolveTask.start), and waits while none can. A task
// writes only itself; the lock orders a plan's build before the
// simulations that read it.
func runTasks(tasks []resolveTask) {
	var mu sync.Mutex
	changed := sync.NewCond(&mu)
	left, inFlight := len(tasks), 0
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(tasks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for left > 0 {
				t, ops := (*resolveTask)(nil), 0
				for i := range tasks {
					if ok, n := tasks[i].start(inFlight); ok && !tasks[i].taken {
						t, ops = &tasks[i], n
						break
					}
				}
				if t == nil {
					changed.Wait()
					continue
				}
				t.taken, left, inFlight = true, left-1, inFlight+ops
				mu.Unlock()
				t.run()
				mu.Lock()
				inFlight -= ops
				if t.sim == nil {
					t.plan.built = true
				}
				changed.Broadcast()
			}
		}()
	}
	wg.Wait()
}

// resolvePending plans and simulates the pending jobs and returns their
// durations in start order. Its tasks are one per plan the cache lacks,
// then one per distinct uncached simulation, each kind largest shape
// first, run by runTasks: plans build first, and a simulation starts
// once its plan is built and its ops fit beside the running ones'.
// Simulations of one plan share it. Afterwards, on the calling
// goroutine and in start order, the plan and duration caches are filled
// and each duration is checked, against jobDuration's rule and against
// minDuration, so the caches and the returned error (the
// earliest-started failing job's) are those of planning and simulating
// the jobs one after another.
func (s *Simulator) resolvePending(pending []pendingJob, durCache map[durKey]durEntry) ([]float64, error) {
	if s.onResolve != nil {
		s.onResolve(pending)
	}
	plans := make(map[JobShape]*planTask)
	sims := make(map[durKey]*simTask)
	var planTasks, simTasks []resolveTask
	for i := range pending {
		p := &pending[i]
		pt := plans[p.key.shape]
		if pt == nil {
			pt = &planTask{shape: p.job.Shape, ps: s.planned[p.key.shape]}
			pt.built = pt.ps != nil
			plans[p.key.shape] = pt
			if !pt.built {
				planTasks = append(planTasks, resolveTask{plan: pt})
			}
		}
		if _, ok := durCache[p.key]; !ok && sims[p.key] == nil {
			sims[p.key] = &simTask{p: p, plan: pt}
			simTasks = append(simTasks, resolveTask{sim: sims[p.key]})
		}
	}
	sort.SliceStable(planTasks, func(a, b int) bool { return planTasks[a].plan.shape.GPUs > planTasks[b].plan.shape.GPUs })
	sort.SliceStable(simTasks, func(a, b int) bool { return simTasks[a].sim.p.job.Shape.GPUs > simTasks[b].sim.p.job.Shape.GPUs })
	runTasks(append(planTasks, simTasks...))

	durs := make([]float64, len(pending))
	for i := range pending {
		p := &pending[i]
		pt := plans[p.key.shape]
		if pt.err != nil {
			return nil, jobErr(p.job, pt.err)
		}
		ps := pt.ps
		s.planned[p.key.shape] = ps
		ent, ok := durCache[p.key]
		if !ok {
			t := sims[p.key]
			if t.err != nil {
				return nil, jobErr(p.job, t.err)
			}
			ent = t.ent
			durCache[p.key] = ent
		}
		dur, err := jobDuration(p.job, p.startUs, p.simIters, ent)
		if err != nil {
			return nil, err
		}
		if lo := ps.minDuration(p.job.Shape.Iterations); dur < lo {
			return nil, jobErr(p.job, fmt.Errorf("simulated duration %g µs is below its lower bound %g µs", dur, lo))
		}
		durs[i] = dur
	}
	return durs, nil
}

// Simulate runs the job trace over the fleet and reports per-job and
// aggregate scheduling metrics, one result per job in job-ID order; job
// IDs must be distinct. Scheduling is FIFO without backfill: a
// head-of-queue job that does not fit blocks later arrivals, which is
// what makes the placement policy's fragmentation behavior observable
// as queueing delay. Completions and arrivals at the same instant
// process completions first, so a departing job's GPUs are reusable
// immediately.
//
// A started job ends strictly after its start, and, when its plan is
// cached, no sooner than its start plus minDuration. Until the clock
// could reach its end, the job affects no decision: placement reads
// only which GPUs are free and how many tenants each node holds. Its
// plan and simulation are therefore left pending, across instants,
// until the next event (a known completion or an arrival) could reach
// a pending job's end, and then every pending job resolves at once
// (resolvePending). A job whose plan is not cached at its start thus
// resolves before the clock leaves its start instant. The report is
// bit-identical to planning and simulating each job as it starts.
//
//rap:deterministic
func (s *Simulator) Simulate(jobs []Job) (*Report, error) {
	fleetGPUs := s.cfg.Topo.NumGPUs()
	ids := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		if ids[j.ID] {
			return nil, fmt.Errorf("cluster: job ID %d appears more than once", j.ID)
		}
		ids[j.ID] = true
		if j.Shape.GPUs < 1 || j.Shape.GPUs > fleetGPUs {
			return nil, fmt.Errorf("cluster: job %d wants %d GPUs, fleet has %d", j.ID, j.Shape.GPUs, fleetGPUs)
		}
		if j.Shape.Iterations < 1 {
			return nil, fmt.Errorf("cluster: job %d has %d iterations", j.ID, j.Shape.Iterations)
		}
		if !(j.ArrivalUs >= 0) || math.IsInf(j.ArrivalUs, 1) {
			return nil, fmt.Errorf("cluster: job %d arrives at %g", j.ID, j.ArrivalUs)
		}
	}

	order := append([]Job(nil), jobs...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].ArrivalUs < order[j].ArrivalUs {
			return true
		}
		if order[i].ArrivalUs > order[j].ArrivalUs {
			return false
		}
		return order[i].ID < order[j].ID
	})

	free := make([]bool, fleetGPUs)
	for g := range free {
		free[g] = true
	}
	view := &FleetView{Topo: s.cfg.Topo, Free: free}
	tenants := make([]int, s.cfg.Topo.NumNodes())
	durCache := make(map[durKey]durEntry)

	var (
		run     []runningJob
		queue   []Job
		results []JobResult
		busyUs  float64 // allocated GPU-time, for utilization
		// pending are the started jobs whose ends are not known yet:
		// the last len(pending) entries of run, in start order. A
		// completion removes an earlier entry, so the pending ones stay
		// at the tail.
		pending []pendingJob
	)

	startJob := func(j Job, alloc []int, now float64) error {
		sub, err := s.cfg.Topo.Subset(alloc)
		if err != nil {
			return placeErr(s.cfg.Policy, j, err)
		}
		// Distinct fleet nodes in first-appearance order — index i is
		// subset node i by Subset's renumbering.
		var nodes []int
		for _, g := range alloc {
			fn := s.cfg.Topo.NodeOf(g)
			seen := false
			for _, n := range nodes {
				if n == fn {
					seen = true
					break
				}
			}
			if !seen {
				nodes = append(nodes, fn)
			}
		}
		// Background tenants: each co-resident job on a node congests
		// that node's fabric link for the whole run, modeled as a
		// fabric scale of 1/(1+tenants). Only meaningful when the job
		// itself spans nodes — a single-node job never touches the
		// fabric.
		var fabricScale []float64
		scaleKey := ""
		if sub.NumNodes() > 1 {
			fabricScale = make([]float64, len(nodes))
			for i, fn := range nodes {
				k := tenants[fn]
				fabricScale[i] = 1 / float64(1+k)
				if k > 0 {
					scaleKey += fmt.Sprintf("%d:%d,", i, k)
				}
			}
		}

		simIters := min(simIterations, j.Shape.Iterations)
		key := durKey{shape: planKey(j.Shape), simIters: simIters, pattern: nodePattern(sub), scales: scaleKey}

		for _, g := range alloc {
			free[g] = false
		}
		for _, fn := range nodes {
			tenants[fn]++
		}
		run = append(run, runningJob{
			res: JobResult{
				ID:        j.ID,
				GPUs:      len(alloc),
				Nodes:     sub.NumNodes(),
				ArrivalUs: j.ArrivalUs,
				StartUs:   now,
				QueueUs:   now - j.ArrivalUs,
			},
			alloc: alloc,
			nodes: nodes,
		})
		bound := now
		if ps := s.planned[key.shape]; ps != nil {
			bound = now + ps.minDuration(j.Shape.Iterations)
		}
		pending = append(pending, pendingJob{job: j, startUs: now, boundUs: bound, simIters: simIters, key: key, sub: sub, scale: fabricScale})
		return nil
	}

	// resolve fills in the pending jobs' ends. busyUs sums in start
	// order, as when each job was simulated at its start.
	resolve := func() error {
		durs, err := s.resolvePending(pending, durCache)
		if err != nil {
			return err
		}
		base := len(run) - len(pending)
		for i, dur := range durs {
			r := &run[base+i].res
			busyUs += float64(r.GPUs) * dur
			r.EndUs = r.StartUs + dur
			r.JCTUs = r.StartUs + dur - r.ArrivalUs
		}
		pending = pending[:0]
		return nil
	}

	drain := func(now float64) error {
		for len(queue) > 0 {
			alloc := s.cfg.Policy.Place(view, queue[0].Shape.GPUs)
			if alloc == nil {
				return nil
			}
			if len(alloc) != queue[0].Shape.GPUs {
				return fmt.Errorf("cluster: policy %s returned %d GPUs for a %d-GPU job",
					s.cfg.Policy.Name(), len(alloc), queue[0].Shape.GPUs)
			}
			// Out-of-range and repeated GPUs are Subset's to reject; a
			// GPU still held by a running job is caught here.
			for _, g := range alloc {
				if g >= 0 && g < len(free) && !free[g] {
					return fmt.Errorf("cluster: policy %s placed job %d on GPU %d, which another job still holds",
						s.cfg.Policy.Name(), queue[0].ID, g)
				}
			}
			if err := startJob(queue[0], alloc, now); err != nil {
				return err
			}
			queue = queue[1:]
		}
		return nil
	}

	// drainAt drains the queue at now. A placement error is returned
	// only once the jobs started before it have resolved without one,
	// as when each job resolved at its start.
	drainAt := func(now float64) error {
		err := drain(now)
		if err != nil && len(pending) > 0 {
			if rerr := resolve(); rerr != nil {
				return rerr
			}
		}
		return err
	}

	next := 0
	for next < len(order) || len(queue) > 0 || len(run) > 0 {
		// Earliest known completion; ties break toward the lower job
		// ID. Pending jobs end after the next event, so they take no
		// part.
		ci := -1
		for i := range run[:len(run)-len(pending)] {
			if ci < 0 || run[i].res.EndUs < run[ci].res.EndUs ||
				(!(run[i].res.EndUs > run[ci].res.EndUs) && run[i].res.ID < run[ci].res.ID) {
				ci = i
			}
		}
		// Resolve before the next event could reach a pending job's
		// end.
		if len(pending) > 0 {
			nextUs := math.Inf(1)
			if ci >= 0 {
				nextUs = run[ci].res.EndUs
			}
			if next < len(order) {
				nextUs = min(nextUs, order[next].ArrivalUs)
			}
			if slices.ContainsFunc(pending, func(p pendingJob) bool { return p.reachedBy(nextUs) }) {
				if err := resolve(); err != nil {
					return nil, err
				}
				continue
			}
		}
		switch {
		case ci >= 0 && (next >= len(order) || run[ci].res.EndUs <= order[next].ArrivalUs):
			done := run[ci]
			run = append(run[:ci], run[ci+1:]...)
			for _, g := range done.alloc {
				free[g] = true
			}
			for _, fn := range done.nodes {
				tenants[fn]--
			}
			results = append(results, done.res)
			if err := drainAt(done.res.EndUs); err != nil {
				return nil, err
			}
		case next < len(order):
			queue = append(queue, order[next])
			now := order[next].ArrivalUs
			next++
			if err := drainAt(now); err != nil {
				return nil, err
			}
		default:
			// Nothing running, nothing arriving, queue stuck: the head
			// job is unplaceable even on an idle fleet.
			return nil, fmt.Errorf("cluster: policy %s cannot place job %d (%d GPUs) on an idle %d-GPU fleet",
				s.cfg.Policy.Name(), queue[0].ID, queue[0].Shape.GPUs, fleetGPUs)
		}
	}

	sort.SliceStable(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	rep := &Report{
		Policy:  s.cfg.Policy.Name(),
		GPUs:    fleetGPUs,
		Nodes:   s.cfg.Topo.NumNodes(),
		Jobs:    len(results),
		Results: results,
	}
	for _, jr := range results {
		if jr.EndUs > rep.MakespanUs {
			rep.MakespanUs = jr.EndUs
		}
		if jr.QueueUs > rep.MaxQueueUs {
			rep.MaxQueueUs = jr.QueueUs
		}
		rep.AvgQueueUs += jr.QueueUs
		rep.AvgJCTUs += jr.JCTUs
	}
	if n := float64(len(results)); n > 0 {
		rep.AvgQueueUs /= n
		rep.AvgJCTUs /= n
	}
	if rep.MakespanUs > 0 {
		rep.GPUUtil = busyUs / (float64(fleetGPUs) * rep.MakespanUs)
	}
	return rep, nil
}

// placeErr names the policy and the job of an allocation the fleet
// rejects, as the double-booking check in Simulate does.
func placeErr(pol Policy, j Job, err error) error {
	return fmt.Errorf("cluster: policy %s placed job %d on an invalid allocation: %w", pol.Name(), j.ID, err)
}

// nodePattern renders a subset topology's node assignment as a cache
// key: the node of every GPU in order.
func nodePattern(t *topo.Topology) string {
	var b strings.Builder
	for g := 0; g < t.NumGPUs(); g++ {
		fmt.Fprintf(&b, "%d,", t.NodeOf(g))
	}
	return b.String()
}
