// Fleet quickstart: schedule a seeded multi-tenant job trace onto a
// hierarchical fleet (GPUs grouped into NVSwitch nodes joined by an
// oversubscribed inter-node fabric), compare RAP-aware packing against
// naive first-fit placement, and show what a single split allocation
// pays on the shared fabric.
//
//	go run ./examples/cluster_fleet
package main

import (
	"fmt"
	"log"

	"rap/internal/cluster"
	"rap/internal/rap"
	"rap/internal/topo"
)

func main() {
	// 1. The fleet: 8 NVSwitch nodes of 8 GPUs. Within a node GPUs talk
	//    at full NVLink rate; between nodes traffic shares one 100 GB/s
	//    uplink per node, oversubscribed 4x.
	fleet := topo.Uniform(8, 8)
	fleet.FabricGBs = 100
	fleet.Oversub = 4
	fmt.Printf("fleet: %s\n\n", fleet)

	// 2. A seeded trace of DLRM training jobs: mixed datasets,
	//    preprocessing plans and sizes (2-16 GPUs), Poisson arrivals.
	//    The same seed always yields the same trace.
	jobs, err := cluster.GenerateJobs(cluster.GenConfig{
		Seed: 7, NumJobs: 24, MeanGapUs: 1500, MaxGPUs: fleet.NumGPUs(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d jobs, first %s/plan%d on %d GPUs, last arrival t=%.1f ms\n\n",
		len(jobs), jobs[0].Shape.Dataset, jobs[0].Shape.PlanIdx,
		jobs[0].Shape.GPUs, jobs[len(jobs)-1].ArrivalUs/1e3)

	// 3. Schedule the identical trace under both placement policies.
	//    Every job is planned by the real RAP planner (one cached plan
	//    per shape) and simulated on its slice of the fleet, with
	//    co-tenant fabric congestion as a static per-node fabric scale.
	for _, pol := range []cluster.Policy{cluster.Pack{}, cluster.FirstFit{}} {
		sim, err := cluster.New(cluster.Config{Topo: fleet, Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sim.Simulate(jobs)
		if err != nil {
			log.Fatal(err)
		}
		split := 0
		for _, jr := range rep.Results {
			if jr.Nodes > 1 {
				split++
			}
		}
		fmt.Printf("%-10s avg JCT %8.1f ms   makespan %8.1f ms   util %5.1f%%   split jobs %d/%d\n",
			rep.Policy, rep.AvgJCTUs/1e3, rep.MakespanUs/1e3, 100*rep.GPUUtil, split, rep.Jobs)
		fmt.Printf("%-10s report digest %s (bit-stable across reruns)\n",
			"", rep.Digest()[:16])
	}

	// 4. Why packing wins: the same 4-GPU job, whole on one node vs
	//    split 2+2 across the fabric.
	whole, err := jobDuration(fleet, []int{0, 1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	splitDur, err := jobDuration(fleet, []int{0, 1, 8, 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\none 4-GPU job, packed on a node: %8.1f ms\n", whole/1e3)
	fmt.Printf("same job split across 2 nodes:  %8.1f ms  (%.2fx slower: all-to-all\n"+
		"    exchange crosses the oversubscribed fabric)\n",
		splitDur/1e3, splitDur/whole)
}

// pinned is a tiny custom Policy: it always places on a fixed GPU set,
// showing how pluggable placement is.
type pinned []int

func (pinned) Name() string { return "pinned" }

func (p pinned) Place(v *cluster.FleetView, want int) []int {
	if want != len(p) {
		return nil
	}
	for _, g := range p {
		if !v.Free[g] {
			return nil
		}
	}
	return []int(p)
}

// jobDuration runs one 4-GPU Kaggle job alone on the given GPUs and
// returns its duration in us.
func jobDuration(fleet *topo.Topology, gpus []int) (float64, error) {
	sim, err := cluster.New(cluster.Config{Topo: fleet, Policy: pinned(gpus)})
	if err != nil {
		return 0, err
	}
	rep, err := sim.Simulate([]cluster.Job{{
		ID: 0, Shape: cluster.JobShape{
			Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 2048, GPUs: len(gpus), Iterations: 24,
		},
	}})
	if err != nil {
		return 0, err
	}
	return rep.Results[0].EndUs - rep.Results[0].StartUs, nil
}
