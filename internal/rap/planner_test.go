package rap

import (
	"errors"
	"reflect"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/gpusim"
	"rap/internal/memo"
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
// (concurrent probes and lowering, memoization) with a fresh plan cache
// swapped in between, so the second run genuinely rebuilds: the plans
// must be deeply equal.
func TestBuildPlanDeterministicUnderConcurrency(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	a, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.plans = memo.New[string, *ExecPlan]()
	b, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("second BuildPlan was served from the old plan cache")
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
			memoized.plans = memo.New[string, *ExecPlan]()
			a, err := memoized.BuildPlan(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			plain := New(w, gpusim.ClusterConfig{NumGPUs: 4})
			plain.probes, plain.solves, plain.plans = nil, nil, nil
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
	if hits, misses := f.plans.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("plan cache counted %d hits, %d misses; want 1, 2", hits, misses)
	}
	f.plans = memo.New[string, *ExecPlan]()
	d, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("a fresh plan cache still served the old plan")
	}
	if !plansEqual(a, d) {
		t.Fatal("rebuilt plan differs from cached plan")
	}
	if hits, _ := f.solves.Stats(); hits == 0 {
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
