package rap

import (
	"math"
	"testing"

	"rap/internal/gpusim"
	"rap/internal/topo"
)

// TestExecuteTopo: topology is an execution-time argument — the same
// cached plan simulates on flat and hierarchical fleets. A flat (or
// nil) topology is bit-identical to plain Execute; a constrained
// multi-node fabric slows the run; a congested fabric scale composes on
// top.
func TestExecuteTopo(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	p, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	plain, err := f.Execute(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := f.ExecuteTopo(p, 4, topo.Uniform(1, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(flat.Result.Makespan) != math.Float64bits(plain.Result.Makespan) {
		t.Fatalf("flat-topology makespan %g != plain %g", flat.Result.Makespan, plain.Result.Makespan)
	}

	tp := topo.Uniform(2, 2)
	tp.FabricGBs = 20 // far below NVLink: cross-node all-to-all saturates it
	tp.Oversub = 2
	slow, err := f.ExecuteTopo(p, 4, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(slow.Result.Makespan > plain.Result.Makespan) {
		t.Fatalf("constrained fabric did not stretch the run: %g <= %g",
			slow.Result.Makespan, plain.Result.Makespan)
	}

	perturbed, err := f.ExecuteTopo(p, 4, tp, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !(perturbed.Result.Makespan > slow.Result.Makespan) {
		t.Fatalf("fabric congestion did not stretch the topologized run: %g <= %g",
			perturbed.Result.Makespan, slow.Result.Makespan)
	}

	// Mismatched topology size surfaces as an error, not a wrong result.
	if _, err := f.ExecuteTopo(p, 4, topo.Uniform(2, 4), nil); err == nil {
		t.Fatal("8-GPU topology accepted on a 4-GPU cluster")
	}
}
