package sched_test

import (
	"fmt"
	"testing"

	"rap/internal/gpusim"
	"rap/internal/rap"
	"rap/internal/sched"
	"rap/internal/topo"
)

// fleetShapes is the fleet's job-shape menu (package cluster's
// shapeMenu, iterations aside): the paper's four DLRM configurations at
// the GPU counts and batch sizes the fleet runs.
var fleetShapes = []struct {
	ds                rap.Dataset
	plan, batch, gpus int
}{
	{rap.Kaggle, 0, 2048, 2},
	{rap.Kaggle, 0, 4096, 4},
	{rap.Terabyte, 1, 4096, 4},
	{rap.Terabyte, 1, 4096, 8},
	{rap.Terabyte, 2, 2048, 8},
	{rap.Terabyte, 3, 4096, 16},
}

// TestStampedFleetShapesMatchBuilt: on every fleet shape, planned and
// run as the fleet plans and runs it (without timelines), the stamped
// run is the run with every iteration built
// (sched.CheckStampedMatchesBuilt), at 4 and 8 iterations, on a flat
// topology and on 2- and 3-node subsets (the 2-GPU shape spans at most
// 2 nodes), with and without a fabric scale.
func TestStampedFleetShapesMatchBuilt(t *testing.T) {
	for _, sh := range fleetShapes {
		w, err := rap.NewWorkload(sh.ds, sh.plan, sh.batch, 1)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := rap.New(w, gpusim.ClusterConfig{NumGPUs: sh.gpus, HostCores: rap.HostCores}).BuildPlan(rap.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		work := sched.LowerWork(plan.Work)
		type layout struct {
			name  string
			tp    *topo.Topology
			scale []float64
		}
		layouts := []layout{{"flat", topo.Uniform(1, sh.gpus), nil}}
		for nodes := 2; nodes <= min(3, sh.gpus); nodes++ {
			nodeOf := make([]int, sh.gpus)
			for g := range nodeOf {
				nodeOf[g] = g * nodes / sh.gpus
			}
			tp, err := topo.FromNodeOf(nodeOf)
			if err != nil {
				t.Fatal(err)
			}
			tp.FabricGBs = 100
			tp.Oversub = 4
			name := fmt.Sprintf("%d-node", nodes)
			layouts = append(layouts, layout{name, tp, nil},
				layout{name + "-scaled", tp, []float64{0.5, 1, 1.0 / 3}[:nodes]})
		}
		for _, l := range layouts {
			for _, iters := range []int{4, 8} {
				opts := sched.PipelineOptions{Iterations: iters, Interleave: true, PreprocPriority: plan.Opts.PreprocPriority,
					Topology: l.tp, FabricScale: l.scale}
				if err := sched.CheckStampedMatchesBuilt(plan.Cluster, w.Model, plan.Placement, work, opts); err != nil {
					t.Fatalf("%s plan %d, %d GPUs, %s, %d iterations: %v", sh.ds, sh.plan, sh.gpus, l.name, iters, err)
				}
			}
		}
	}
}
