package rap

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/gpusim"
	"rap/internal/milp"
)

// plansEqual compares the planner outputs of two ExecPlans (the
// workload/cluster/opts headers are inputs, and Framework pointers
// differ between frameworks).
func plansEqual(a, b *ExecPlan) bool {
	return reflect.DeepEqual(a.Placement, b.Placement) &&
		reflect.DeepEqual(a.Mapping, b.Mapping) &&
		reflect.DeepEqual(a.Capacities, b.Capacities) &&
		reflect.DeepEqual(a.Fusions, b.Fusions) &&
		reflect.DeepEqual(a.Schedules, b.Schedules) &&
		reflect.DeepEqual(a.Work, b.Work) &&
		reflect.DeepEqual(a.PredictedExposedUs, b.PredictedExposedUs)
}

// TestBuildPlanDeterministicUnderConcurrency double-runs BuildPlan
// (concurrent lowering, memoization) on one framework: the plans must
// be deeply equal.
func TestBuildPlanDeterministicUnderConcurrency(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	a, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(a, b) {
		t.Fatal("double-run BuildPlan produced different plans")
	}
}

// TestBuildPlanMemoTransparent pins the solve memo's whole contract: a
// rebuild answered from a warm solve memo must equal a build without
// it. The Terabyte case caps the MILP budget, so memoized
// budget-truncated solves are checked too.
func TestBuildPlanMemoTransparent(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   Dataset
		plan int
		opts BuildOptions
	}{
		{"kaggle plan 1", Kaggle, 1, BuildOptions{}},
		{"terabyte plan 2 truncated", Terabyte, 2, BuildOptions{FusionMaxNodes: 2000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workload(t, tc.ds, tc.plan, 1024)
			memoized := New(w, gpusim.ClusterConfig{NumGPUs: 4})
			if _, err := memoized.BuildPlan(tc.opts); err != nil {
				t.Fatal(err)
			}
			a, err := memoized.BuildPlan(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			plain := New(w, gpusim.ClusterConfig{NumGPUs: 4})
			plain.solves = nil
			b, err := plain.BuildPlan(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !plansEqual(a, b) {
				t.Fatal("memoized plan differs from the memo-free plan")
			}
			if hits, misses := memoized.solves.Stats(); hits == 0 {
				t.Fatalf("no solve-cache hits on the rebuild (misses %d)", misses)
			}
			if tc.opts.FusionMaxNodes > 0 && !anyTruncated(a) {
				t.Fatal("no fusion solve hit the node budget — test premise broken")
			}
		})
	}
}

func anyTruncated(p *ExecPlan) bool {
	for _, fp := range p.Fusions {
		if !fp.Optimal {
			return true
		}
	}
	return false
}

// TestBuildPlanRejectsNonFiniteBandwidth: a NaN or infinite cluster
// bandwidth is reported by BuildPlan as the cluster validation error
// naming the field, instead of a plan whose predicted exposure is NaN.
func TestBuildPlanRejectsNonFiniteBandwidth(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	for _, tc := range []struct {
		cluster gpusim.ClusterConfig
		field   string
	}{
		{gpusim.ClusterConfig{NumGPUs: 2, LinkGBs: math.NaN()}, "LinkGBs"},
		{gpusim.ClusterConfig{NumGPUs: 2, CopyGBs: math.Inf(1)}, "CopyGBs"},
		{gpusim.ClusterConfig{NumGPUs: 2, DramGBs: math.Inf(-1)}, "DramGBs"},
	} {
		p, err := New(w, tc.cluster).BuildPlan(BuildOptions{})
		if err == nil {
			t.Fatalf("%+v: BuildPlan accepted, exposure %v", tc.cluster, p.PredictedExposedUs)
		}
		if want := "cluster " + tc.field; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("%+v: BuildPlan error = %v, want the cluster validation error for %s", tc.cluster, err, tc.field)
		}
	}
}

// TestBuildPlanFusionMaxNodes: FusionMaxNodes 0 is fusion's automatic
// budget, a positive value caps every solve, and a negative one fails the
// build with milp.ErrNegativeLimit instead of searching 2,000,000 nodes
// per solve.
func TestBuildPlanFusionMaxNodes(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	for _, tc := range []struct {
		maxNodes int
		wantErr  bool
	}{
		{0, false},
		{5, false},
		{-1, true},
	} {
		plan, err := New(w, gpusim.ClusterConfig{NumGPUs: 2}).BuildPlan(BuildOptions{FusionMaxNodes: tc.maxNodes})
		if tc.wantErr {
			if !errors.Is(err, milp.ErrNegativeLimit) {
				t.Fatalf("FusionMaxNodes %d: err = %v, want milp.ErrNegativeLimit", tc.maxNodes, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("FusionMaxNodes %d: %v", tc.maxNodes, err)
		}
		for g, fp := range plan.Fusions {
			if tc.maxNodes > 0 && fp.Nodes > tc.maxNodes {
				t.Fatalf("FusionMaxNodes %d: GPU %d searched %d nodes", tc.maxNodes, g, fp.Nodes)
			}
		}
	}
}

// TestOfflinePredictorDeterministicPlans trains the GBDT predictor with
// one seed in two fresh frameworks and twice in one framework: every
// build from those predictors must have the same plan digest.
func TestOfflinePredictorDeterministicPlans(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	const samples, seed = 600, 5
	trainAndBuild := func(f *Framework) string {
		t.Helper()
		if _, err := f.OfflineTrainPredictor(samples, seed); err != nil {
			t.Fatal(err)
		}
		p, err := f.BuildPlan(BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := planDigest(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	first := trainAndBuild(a)
	if other := trainAndBuild(New(w, gpusim.ClusterConfig{NumGPUs: 2})); other != first {
		t.Fatalf("fresh frameworks disagree: %s vs %s", first[:12], other[:12])
	}
	if again := trainAndBuild(a); again != first {
		t.Fatalf("retraining in one framework changed the plan: %s vs %s", first[:12], again[:12])
	}
	analytic, err := New(w, gpusim.ClusterConfig{NumGPUs: 2}).BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := planDigest(analytic); err != nil || d == first {
		t.Fatalf("trained predictor planned exactly like the analytic one (err %v): test premise broken", err)
	}
}

// TestBuildPlanCostModelErrorPropagates: a cost model that fails during
// mapping-candidate scoring must surface from BuildPlan instead of
// being swallowed into a 1e18 sentinel that silently skews the search.
func TestBuildPlanCostModelErrorPropagates(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	boom := errors.New("synthetic cost-model failure")
	calls := 0
	f.newCostModel = func(caps []costmodel.StageCapacity) (*costmodel.CostModel, error) {
		calls++
		if calls == 3 { // fail one mid-search candidate, not the first
			return nil, boom
		}
		return costmodel.NewCostModel(f.pred, caps)
	}
	_, err := f.BuildPlan(BuildOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("BuildPlan error = %v, want the injected cost-model failure", err)
	}
}

// TestBuildPlanConcurrentLoweringErrors: every GPU's lowering fails at
// once. DataParallel mapping never calls the cost function, so all four
// failures happen in the concurrent lowering; BuildPlan must return the
// injected error, and under -race this catches lowering goroutines that
// write a shared error variable.
func TestBuildPlanConcurrentLoweringErrors(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	boom := errors.New("synthetic cost-model failure")
	f.newCostModel = func([]costmodel.StageCapacity) (*costmodel.CostModel, error) {
		return nil, boom
	}
	_, err := f.BuildPlan(BuildOptions{Strategy: MapDataParallel})
	if !errors.Is(err, boom) {
		t.Fatalf("BuildPlan error = %v, want the injected cost-model failure", err)
	}
}

// TestEstimateCapacitiesProbeErrors: the placement covers one GPU of the
// four, so GPU 0's profile succeeds and GPU 1's fails. The error must
// come back.
func TestEstimateCapacitiesProbeErrors(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	_, err := f.estimateCapacities(dlrm.PlaceTables(w.Model.TableSizes, 1))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("estimateCapacities error = %v, want a GPU-out-of-range probe error", err)
	}
}
