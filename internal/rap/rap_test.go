package rap

import (
	"encoding/json"
	"strings"
	"testing"

	"rap/internal/gpusim"
)

func workload(t *testing.T, ds Dataset, planIdx, batch int) *Workload {
	t.Helper()
	w, err := NewWorkload(ds, planIdx, batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorkloadShapes(t *testing.T) {
	cases := []struct {
		ds            Dataset
		plan          int
		dense, sparse int
	}{
		{Kaggle, 0, 13, 26},
		{Terabyte, 1, 13, 26},
		{Terabyte, 2, 26, 52},
		{Terabyte, 3, 52, 104},
	}
	for _, c := range cases {
		w := workload(t, c.ds, c.plan, 4096)
		if w.Plan.NumDense != c.dense || w.Plan.NumSparse != c.sparse {
			t.Fatalf("%s plan %d: %d/%d", c.ds, c.plan, w.Plan.NumDense, w.Plan.NumSparse)
		}
		if w.Model.NumTables() != w.Plan.NumTables {
			t.Fatalf("tables mismatch: %d vs %d", w.Model.NumTables(), w.Plan.NumTables)
		}
	}
	if _, err := NewWorkload("nope", 0, 64, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := NewWorkload(Kaggle, 9, 64, 1); err == nil {
		t.Fatal("unknown plan accepted")
	}
}

func TestSkewedWorkload(t *testing.T) {
	w, err := SkewedWorkload(6, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Plan.NumTables != 32 || w.Model.NumTables() != 32 {
		t.Fatalf("skewed tables = %d/%d", w.Plan.NumTables, w.Model.NumTables())
	}
}

func TestBuildPlanAndExecute(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	p, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mapping.Strategy != "rap" {
		t.Fatalf("strategy = %s", p.Mapping.Strategy)
	}
	// Plan 1 fits: predicted exposure stays a small fraction of the
	// ~3.5 ms iteration on every GPU.
	for g, e := range p.PredictedExposedUs {
		if e > 400 {
			t.Fatalf("gpu %d predicted exposed %f", g, e)
		}
	}
	// Fusion compressed the per-GPU op count.
	for g := range p.Fusions {
		if p.Fusions[g].NumOps > 0 && p.Fusions[g].NumKernels >= p.Fusions[g].NumOps {
			t.Fatalf("gpu %d: no fusion benefit", g)
		}
	}
	stats, err := f.Execute(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	// RAP end-to-end should stay near the ideal (paper: 3.24% gap; we
	// allow slack for pipeline fill and prep).
	ideal := f.IdealThroughput()
	if stats.Throughput < 0.85*ideal {
		t.Fatalf("RAP throughput %.0f too far below ideal %.0f", stats.Throughput, ideal)
	}
	if stats.Throughput > 1.02*ideal {
		t.Fatalf("throughput %.0f exceeds ideal %.0f — accounting bug", stats.Throughput, ideal)
	}
}

// TestExecuteRejectsAbsurdIterations: a run of more ops than gpusim
// indexes is an error naming the iteration count, returned before the
// op store is sized for it (which ran the process out of memory).
func TestExecuteRejectsAbsurdIterations(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	p, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Execute(p, 1<<40)
	if err == nil || !strings.Contains(err.Error(), "1099511627776 iterations") {
		t.Fatalf("error = %v, want one naming the 1099511627776 iterations", err)
	}
}

func TestBuildPlanStrategies(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	for _, s := range []MappingStrategy{MapRAP, MapDataParallel, MapDataLocality} {
		p, err := f.BuildPlan(BuildOptions{Strategy: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(p.Work) != 4 {
			t.Fatalf("%s: work entries %d", s, len(p.Work))
		}
	}
	if _, err := f.BuildPlan(BuildOptions{Strategy: "bogus"}); err == nil {
		t.Fatal("bogus strategy accepted")
	}
	// DP mapping pays communication; RAP on a uniform plan does not.
	dp, err := f.BuildPlan(BuildOptions{Strategy: MapDataParallel})
	if err != nil {
		t.Fatal(err)
	}
	rapPlan, err := f.BuildPlan(BuildOptions{Strategy: MapRAP})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Mapping.TotalComm() <= rapPlan.Mapping.TotalComm() {
		t.Fatal("DP should pay more input communication than RAP")
	}
}

func TestAblationSwitches(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	noFusion, err := f.BuildPlan(BuildOptions{NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range noFusion.Fusions {
		if noFusion.Fusions[g].MaxFusionDegree() > 1 {
			t.Fatal("NoFusion still fused")
		}
	}
	if full.Fusions[0].NumKernels >= noFusion.Fusions[0].NumKernels {
		t.Fatal("fusion did not reduce kernel count")
	}
	noShard, err := f.BuildPlan(BuildOptions{NoSharding: true})
	if err != nil {
		t.Fatal(err)
	}
	for g := range noShard.Schedules {
		if noShard.Schedules[g].NumShards != 0 {
			t.Fatal("NoSharding still sharded")
		}
	}
}

func TestOfflinePredictorIntegration(t *testing.T) {
	w := workload(t, Kaggle, 0, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	acc, err := f.OfflineTrainPredictor(2500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc) != 5 {
		t.Fatalf("accuracy categories = %d", len(acc))
	}
	for cat, a := range acc {
		if a < 0.7 {
			t.Fatalf("category %s accuracy %f", cat, a)
		}
	}
	if _, err := f.BuildPlan(BuildOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialVsRAP(t *testing.T) {
	w := workload(t, Terabyte, 2, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	p, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rapStats, err := f.Execute(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	seqPlan, err := f.BuildPlan(BuildOptions{SequentialPreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	seqStats, err := f.Execute(seqPlan, 8)
	if err != nil {
		t.Fatal(err)
	}
	speedup := rapStats.Throughput / seqStats.Throughput
	if speedup < 1.2 {
		t.Fatalf("RAP speedup over sequential = %.2f, want > 1.2 on plan 2", speedup)
	}
}

func TestCodeGenAndArtifact(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	p, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	script := CodeGen(p)
	for _, want := range []string{"RAP generated co-running plan", "gpu[0]", "gpu[1]", "launch"} {
		if !strings.Contains(script, want) {
			t.Fatalf("codegen missing %q:\n%s", want, script[:min(400, len(script))])
		}
	}
	js, err := MarshalPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var back PlanArtifact
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumGPUs != 2 || back.Plan != "plan1" || len(back.GPUs) != 2 {
		t.Fatalf("artifact round trip: %+v", back)
	}
}

func TestVerifyPlanSemanticsAllPlans(t *testing.T) {
	for idx := 0; idx < 4; idx++ {
		w := workload(t, Terabyte, idx, 128)
		if err := VerifyPlanSemantics(w, 64, 7); err != nil {
			t.Fatalf("plan %d: %v", idx, err)
		}
	}
}

func TestRunFunctional(t *testing.T) {
	w := workload(t, Kaggle, 0, 64).ShrinkForFunctional()
	const iters = 60
	res, err := RunFunctional(w, 2, 64, iters, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != iters {
		t.Fatalf("losses = %d", len(res.Losses))
	}
	if !res.InSync {
		t.Fatal("replicas diverged")
	}
	// Online training on fresh batches: compare mean loss of the first
	// and last quarters.
	quarter := iters / 4
	var first, last float32
	for i := 0; i < quarter; i++ {
		first += res.Losses[i]
		last += res.Losses[iters-1-i]
	}
	if last >= first-0.01 {
		t.Fatalf("functional training not learning: first %f last %f", first/float32(quarter), last/float32(quarter))
	}
}

func TestRunFunctionalValidation(t *testing.T) {
	w := workload(t, Kaggle, 0, 64)
	if _, err := RunFunctional(w, 3, 32, 1, 1); err == nil {
		t.Fatal("indivisible batch accepted")
	}
	if _, err := RunFunctional(w, 0, 32, 1, 1); err == nil {
		t.Fatal("zero workers accepted")
	}
	for _, batch := range []int{0, -32} {
		if _, err := RunFunctional(w, 2, batch, 1, 1); err == nil {
			t.Fatalf("global batch %d accepted", batch)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
