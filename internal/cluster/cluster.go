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
	"sort"
	"strings"

	"rap/internal/gpusim"
	"rap/internal/rap"
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

// hostCores is each job's host CPU pool, the paper's testbed.
const hostCores = 48

// simIterations caps how many pipeline iterations each job is actually
// simulated for; longer jobs extrapolate the remainder at the measured
// steady-state iteration latency.
const simIterations = 8

// workloadSeed feeds per-shape workload synthesis.
const workloadSeed = 1

// plannedShape is one workload shape's cached planning artifact: the
// framework (whose own caches answer repeat probes) plus the built
// execution plan. The plan is topology-free — ExecuteTopo binds it to
// each allocation's fleet slice at simulation time.
type plannedShape struct {
	fw   *rap.Framework
	plan *rap.ExecPlan
}

// Simulator runs job traces over one fleet. The per-shape plan cache
// persists across Simulate calls; simulation state does not.
type Simulator struct {
	cfg     Config
	planned map[JobShape]*plannedShape
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

// planFor returns the cached RAP plan for a shape, building it on first
// use. Iterations are zeroed out of the cache key: jobs differing only
// in length share one plan.
func (s *Simulator) planFor(shape JobShape) (*plannedShape, error) {
	key := shape
	key.Iterations = 0
	if ps, ok := s.planned[key]; ok {
		return ps, nil
	}
	w, err := rap.NewWorkload(shape.Dataset, shape.PlanIdx, shape.PerGPUBatch, workloadSeed)
	if err != nil {
		return nil, err
	}
	fw := rap.New(w, gpusim.ClusterConfig{NumGPUs: shape.GPUs, HostCores: hostCores})
	plan, err := fw.BuildPlan(rap.BuildOptions{})
	if err != nil {
		return nil, err
	}
	ps := &plannedShape{fw: fw, plan: plan}
	s.planned[key] = ps
	return ps, nil
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

// Simulate runs the job trace over the fleet and reports per-job and
// aggregate scheduling metrics. Scheduling is FIFO without backfill: a
// head-of-queue job that does not fit blocks later arrivals, which is
// what makes the placement policy's fragmentation behavior observable
// as queueing delay. Completions and arrivals at the same instant
// process completions first, so a departing job's GPUs are reusable
// immediately.
//
//rap:deterministic
func (s *Simulator) Simulate(jobs []Job) (*Report, error) {
	fleetGPUs := s.cfg.Topo.NumGPUs()
	for _, j := range jobs {
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
	)

	startJob := func(j Job, alloc []int, now float64) error {
		sub, err := s.cfg.Topo.Subset(alloc)
		if err != nil {
			return err
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

		ps, err := s.planFor(j.Shape)
		if err != nil {
			return err
		}
		simIters := min(simIterations, j.Shape.Iterations)
		key := durKey{shape: j.Shape, simIters: simIters, pattern: nodePattern(sub), scales: scaleKey}
		key.shape.Iterations = 0
		ent, ok := durCache[key]
		if !ok {
			stats, err := ps.fw.ExecuteTopo(ps.plan, simIters, sub, fabricScale)
			if err != nil {
				return err
			}
			ent = durEntry{makespanUs: stats.Result.Makespan, steadyUs: stats.SteadyIterLatency}
			durCache[key] = ent
		}
		dur := ent.makespanUs + float64(j.Shape.Iterations-simIters)*ent.steadyUs

		for _, g := range alloc {
			free[g] = false
		}
		for _, fn := range nodes {
			tenants[fn]++
		}
		busyUs += float64(len(alloc)) * dur
		run = append(run, runningJob{
			res: JobResult{
				ID:        j.ID,
				GPUs:      len(alloc),
				Nodes:     sub.NumNodes(),
				ArrivalUs: j.ArrivalUs,
				StartUs:   now,
				EndUs:     now + dur,
				QueueUs:   now - j.ArrivalUs,
				JCTUs:     now + dur - j.ArrivalUs,
			},
			alloc: alloc,
			nodes: nodes,
		})
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

	next := 0
	for next < len(order) || len(queue) > 0 || len(run) > 0 {
		// Earliest completion; ties break toward the lower job ID.
		ci := -1
		for i := range run {
			if ci < 0 || run[i].res.EndUs < run[ci].res.EndUs ||
				(!(run[i].res.EndUs > run[ci].res.EndUs) && run[i].res.ID < run[ci].res.ID) {
				ci = i
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
			if err := drain(done.res.EndUs); err != nil {
				return nil, err
			}
		case next < len(order):
			queue = append(queue, order[next])
			now := order[next].ArrivalUs
			next++
			if err := drain(now); err != nil {
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

// nodePattern renders a subset topology's node assignment as a cache
// key: the node of every GPU in order.
func nodePattern(t *topo.Topology) string {
	var b strings.Builder
	for g := 0; g < t.NumGPUs(); g++ {
		fmt.Fprintf(&b, "%d,", t.NodeOf(g))
	}
	return b.String()
}
