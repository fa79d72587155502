package rap

import (
	"errors"
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

// TestBuildPlanDeterministicUnderConcurrency double-runs the fast-path
// BuildPlan (concurrent probes and lowering, memoization) with the
// plan cache disabled so the second run genuinely rebuilds: the plans
// must be deeply equal.
func TestBuildPlanDeterministicUnderConcurrency(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	f.Planner.DisablePlanCache = true
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

// TestBuildPlanFastPathMatchesSequential pins the fast path's whole
// contract: a framework with every fast-path layer enabled must build
// the same plan as one forced fully sequential and cache-free.
func TestBuildPlanFastPathMatchesSequential(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	fast := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	slow := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	slow.Planner = PlannerOptions{
		SequentialProbes:   true,
		DisableProbeMemo:   true,
		SequentialLowering: true,
		DisableFusionMemo:  true,
		DisablePlanCache:   true,
	}
	a, err := fast.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := slow.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(a, b) {
		t.Fatal("fast-path plan differs from sequential plan")
	}
	hits, misses := fast.ProbeCacheStats()
	if hits == 0 {
		t.Fatalf("fast path recorded no probe-cache hits (misses %d)", misses)
	}
}

// TestBuildPlanPlanCache: an identical request returns the cached plan;
// a different request does not.
func TestBuildPlanPlanCache(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	a, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical BuildPlan request was rebuilt instead of served from cache")
	}
	c, err := f.BuildPlan(BuildOptions{Strategy: MapDataParallel})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different options returned the cached plan")
	}
	f.Planner.DisablePlanCache = true
	d, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("DisablePlanCache still served the cached plan")
	}
	if !plansEqual(a, d) {
		t.Fatal("rebuilt plan differs from cached plan")
	}
	if hits, _ := f.FusionCacheStats(); hits == 0 {
		t.Fatal("warm rebuild re-solved every fusion MILP instead of hitting the solve memo")
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
