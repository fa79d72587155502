package rap

import (
	"math"
	"testing"

	"rap/internal/data"
	"rap/internal/gpusim"
)

func TestWithListLen(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	shifted := w.WithListLen(9)
	if shifted.Plan.AvgListLen != 9 || shifted.Gen.AvgListLen != 9 || shifted.Model.AvgPooling != 9 {
		t.Fatalf("shift not applied: %+v", shifted.Plan.AvgListLen)
	}
	// Original untouched.
	if w.Plan.AvgListLen != 3 {
		t.Fatal("original workload mutated")
	}
	// Graphs shared (no deep copy needed).
	if &w.Plan.Graphs[0] == &shifted.Plan.Graphs[0] {
		_ = w // same backing array is fine; just ensure both validate
	}
	if err := shifted.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptToShift(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	before, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Triple the multi-hot volume: the preprocessing load grows, so the
	// regenerated plan must schedule more kernel time.
	after, err := f.AdaptToShift(9, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	workOf := func(p *ExecPlan) float64 {
		total := 0.0
		for _, s := range p.Schedules {
			for _, stage := range s.PerStage {
				for _, k := range stage {
					total += k.SaturatedWork()
				}
			}
			for _, k := range s.Overflow {
				total += k.SaturatedWork()
			}
		}
		return total
	}
	if workOf(after) <= workOf(before)*1.5 {
		t.Fatalf("regenerated plan did not absorb the shift: %f vs %f", workOf(after), workOf(before))
	}
	// The regenerated plan still executes.
	stats, err := f.Execute(after, 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Throughput <= 0 {
		t.Fatal("no throughput after regeneration")
	}
}

// TestAdaptToShiftRejectedKeepsFramework: a shift to a list length the
// workload cannot validate returns an error and leaves the framework as
// it was, so the next BuildPlan reproduces the plan from before the
// shift bit for bit.
func TestAdaptToShiftRejectedKeepsFramework(t *testing.T) {
	f := New(workload(t, Kaggle, 1, 1024), gpusim.ClusterConfig{NumGPUs: 2})
	before, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := planDigest(before)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), 0, -3} {
		if _, err := f.AdaptToShift(x, BuildOptions{}); err == nil {
			t.Fatalf("AdaptToShift(%v) accepted", x)
		}
		again, err := f.BuildPlan(BuildOptions{})
		if err != nil {
			t.Fatalf("BuildPlan after rejected AdaptToShift(%v): %v", x, err)
		}
		got, err := planDigest(again)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after rejected AdaptToShift(%v): plan digest %s, want %s", x, got[:12], want[:12])
		}
	}
}

func TestRunFunctionalFromDataset(t *testing.T) {
	w := workload(t, Kaggle, 0, 64).ShrinkForFunctional()
	dir := t.TempDir()
	if err := data.WriteDataset(dir, w.Gen, 4, 64); err != nil {
		t.Fatal(err)
	}
	ds, err := data.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	it := ds.Batches()
	it.Loop = true
	defer it.Close()
	res, err := RunFunctionalFrom(w, 2, it, 10, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 10 || !res.InSync {
		t.Fatalf("dataset-fed training broken: %d losses, sync=%v", len(res.Losses), res.InSync)
	}
	// Without Loop, the 4-batch dataset runs dry.
	it2 := ds.Batches()
	defer it2.Close()
	if _, err := RunFunctionalFrom(w, 2, it2, 10, 3, 0.05); err == nil {
		t.Fatal("exhausted dataset not reported")
	}
}

// TestShiftedPrepBytesInItemOrder pins each GPU's host-to-device volume
// at a fractional list length. At the standard length of 3 every
// per-graph term is an integer and any summation order is exact; at 2.7
// the terms are not, so PrepBytes must equal the sum over the GPU's
// mapped items taken in item order, bit for bit.
func TestShiftedPrepBytesInItemOrder(t *testing.T) {
	for _, plan := range []int{1, 2, 3} {
		for _, gpus := range []int{4, 8} {
			f := New(workload(t, Terabyte, plan, 4096), gpusim.ClusterConfig{NumGPUs: gpus, HostCores: 48})
			p, err := f.AdaptToShift(2.7, BuildOptions{})
			if err != nil {
				t.Fatalf("plan %d, %d GPUs: %v", plan, gpus, err)
			}
			for g, items := range p.Mapping.PerGPU {
				want := 0.0
				for _, a := range items {
					if len(a.Graph.Outputs) > 0 {
						want += float64(a.Shape.Samples) * a.Shape.AvgListLen * 8
					} else {
						want += float64(a.Shape.Samples) * 4
					}
				}
				if got := p.Work[g].PrepBytes; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("plan %d, %d GPUs, gpu %d: PrepBytes %v, want %v (the in-order sum)", plan, gpus, g, got, want)
				}
			}
		}
	}
}
