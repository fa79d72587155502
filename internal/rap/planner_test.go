package rap

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/gpusim"
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
// (concurrent probes and lowering, memoization) on one framework: the
// plans must be deeply equal.
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

// TestBuildPlanMemoTransparent pins the memos' whole contract: a rebuild
// answered from warm probe and solve memos must equal a build with
// every memo removed. The Terabyte case caps the MILP budget, so
// memoized budget-truncated solves are checked too.
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
			plain.probes, plain.solves = nil, nil
			b, err := plain.BuildPlan(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !plansEqual(a, b) {
				t.Fatal("memoized plan differs from the memo-free plan")
			}
			if hits, misses := memoized.probes.Stats(); hits == 0 {
				t.Fatalf("no probe-cache hits (misses %d)", misses)
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
// bandwidth is reported by BuildPlan before any capacity probe, instead
// of a plan whose predicted exposure is NaN.
func TestBuildPlanRejectsNonFiniteBandwidth(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	for _, cluster := range []gpusim.ClusterConfig{
		{NumGPUs: 2, LinkGBs: math.NaN()},
		{NumGPUs: 2, CopyGBs: math.Inf(1)},
		{NumGPUs: 2, DramGBs: math.Inf(-1)},
	} {
		f := New(w, cluster)
		if p, err := f.BuildPlan(BuildOptions{}); err == nil {
			t.Fatalf("%+v: BuildPlan accepted, exposure %v", cluster, p.PredictedExposedUs)
		}
		if hits, misses := f.probes.Stats(); hits+misses != 0 {
			t.Fatalf("%+v: %d capacity probes ran before the error", cluster, hits+misses)
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
