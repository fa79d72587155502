package cluster

import (
	"fmt"
	"math"
	"sort"
)

// This file keeps the fleet event loop as it stood before same-instant
// jobs resolved together: each job is planned (through planFor) and
// simulated the moment it starts, one after another. It is the
// executable specification for Simulate, which must return a report
// with the same Digest, or an error with the same text, on every
// trace. The changes from the original are that plan and simulation
// errors are wrapped by jobErr, and an allocation the fleet rejects by
// placeErr, as Simulate wraps them, and that the duration comes from
// jobDuration, which rejects a job that would not end strictly after
// its start: Simulate's pending jobs rest on that rule, so both loops
// enforce it.

// planFor returns the cached RAP plan for a shape, building it on first
// use.
func (s *Simulator) planFor(shape JobShape) (*plannedShape, error) {
	key := planKey(shape)
	if ps, ok := s.planned[key]; ok {
		return ps, nil
	}
	ps, err := buildPlan(shape)
	if err != nil {
		return nil, err
	}
	s.planned[key] = ps
	return ps, nil
}

// simulateReference is Simulate's sequential specification.
func simulateReference(s *Simulator, jobs []Job) (*Report, error) {
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

		ps, err := s.planFor(j.Shape)
		if err != nil {
			return jobErr(j, err)
		}
		simIters := min(simIterations, j.Shape.Iterations)
		key := durKey{shape: j.Shape, simIters: simIters, pattern: nodePattern(sub), scales: scaleKey}
		key.shape.Iterations = 0
		ent, ok := durCache[key]
		if !ok {
			stats, err := ps.fw.ExecuteTopo(ps.plan, simIters, sub, fabricScale)
			if err != nil {
				return jobErr(j, err)
			}
			ent = durEntry{makespanUs: stats.Result.Makespan, steadyUs: stats.SteadyIterLatency}
			durCache[key] = ent
		}
		dur, err := jobDuration(j, now, simIters, ent)
		if err != nil {
			return err
		}

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
