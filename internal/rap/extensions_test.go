package rap

import (
	"fmt"
	"math"
	"testing"

	"rap/internal/data"
	"rap/internal/gpusim"
	"rap/internal/preproc"
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
	if w.WithListLen(-3).Plan.AvgListLen != 1 {
		t.Fatal("non-positive list length not clamped")
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
		for g := range p.Schedules {
			for _, k := range p.Schedules[g].AllKernels() {
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
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
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

// overloadedWorkload builds a plan-1 workload with enough extra NGram
// work that Algorithm 1 cannot hide everything (forcing overflow).
func overloadedWorkload(t *testing.T) *Workload {
	t.Helper()
	w := workload(t, Terabyte, 1, 4096)
	for i := 0; i < 320; i++ {
		gi := w.Plan.NumDense + (i % w.Plan.NumSparse)
		g := w.Plan.Graphs[gi]
		base := g.Ops[0].Output()
		ng := preproc.NewNGram(
			fmt.Sprintf("%s/xng%d", g.Name, i),
			[]string{base},
			fmt.Sprintf("%s.xng%d", base, i),
			3, 1<<20)
		g.Ops = append(g.Ops, ng)
		g.InvalidateDeps()
	}
	if err := w.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMakeHybrid(t *testing.T) {
	w := overloadedWorkload(t)
	// A wide elastic CPU tier (the GoldMiner-style setup the paper's
	// hybrid mode composes with).
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2, HostCores: 4096})
	pure, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var overflowed []int
	for g := range pure.Schedules {
		if spilledOnGPU(pure, g) {
			overflowed = append(overflowed, g)
		}
	}
	if len(overflowed) == 0 {
		t.Fatal("overloaded workload did not overflow — test premise broken")
	}
	pureStats, err := f.Execute(pure, 8)
	if err != nil {
		t.Fatal(err)
	}

	hybrid, spilled, err := MakeHybrid(pure, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatal("nothing spilled")
	}
	// MakeHybrid must leave its input plan untouched.
	for _, g := range overflowed {
		if !spilledOnGPU(pure, g) || pure.Work[g].CPUPreprocUs != 0 {
			t.Fatalf("gpu %d: MakeHybrid modified its input plan", g)
		}
	}
	for g := range hybrid.Schedules {
		if spilledOnGPU(hybrid, g) {
			t.Fatal("overflow not cleared")
		}
		if hybrid.Work[g].Schedule != hybrid.Schedules[g] {
			t.Fatalf("gpu %d: hybrid work runs a different schedule than the plan lists", g)
		}
	}
	for _, g := range overflowed {
		if hybrid.Work[g].CPUPreprocUs <= 0 {
			t.Fatalf("gpu %d spilled but no CPU work assigned", g)
		}
	}
	hybridStats, err := f.Execute(hybrid, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid mode trades exposed GPU tail latency for concurrent CPU
	// work: with a large host pool it must not be slower, and should
	// recover a good share of the exposed time (§10: "minimize CPU
	// resource requirements while maintaining high end-to-end training
	// efficiency").
	if hybridStats.Throughput < pureStats.Throughput {
		t.Fatalf("hybrid slower than pure GPU: %.0f vs %.0f", hybridStats.Throughput, pureStats.Throughput)
	}
	if hybridStats.Throughput < pureStats.Throughput*1.03 {
		t.Fatalf("hybrid recovered too little: %.0f vs %.0f", hybridStats.Throughput, pureStats.Throughput)
	}
}

func spilledOnGPU(p *ExecPlan, g int) bool {
	return len(p.Schedules[g].Overflow) > 0
}

func TestMakeHybridNil(t *testing.T) {
	if _, _, err := MakeHybrid(nil, 8); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestMakeHybridNoOverflowNoop(t *testing.T) {
	w := workload(t, Terabyte, 0, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	p, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range p.Schedules {
		p.Schedules[g].Overflow = nil // everything hidden
	}
	h, spilled, err := MakeHybrid(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Fatalf("nothing overflowed, yet spilled %d", spilled)
	}
	for g := range h.Work {
		if h.Work[g].CPUPreprocUs != 0 {
			t.Fatal("CPU work added without overflow")
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
