package fusion

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rap/internal/milp"
	"rap/internal/preproc"
)

var shape = preproc.Shape{Samples: 4096, AvgListLen: 3}

func chain(name, col string, hash int64) *preproc.Graph {
	return &preproc.Graph{
		Name: name,
		Ops: []preproc.Op{
			preproc.NewFillNullSparse(name+"/fn", col, col+".fn", 0),
			preproc.NewSigridHash(name+"/sh", col+".fn", col+".sh", hash),
			preproc.NewFirstX(name+"/fx", col+".sh", col+".fx", 10),
		},
	}
}

func TestBuildProblemFlattens(t *testing.T) {
	g1, g2 := chain("a", "cat_0", 100), chain("b", "cat_1", 100)
	prob, refs, err := BuildProblem([]*preproc.Graph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 6 || len(prob.Types) != 6 {
		t.Fatalf("flattened %d ops", len(refs))
	}
	// Graph b's first op has no deps; its second depends on index 3.
	if len(prob.Deps[3]) != 0 || len(prob.Deps[4]) != 1 || prob.Deps[4][0] != 3 {
		t.Fatalf("cross-graph deps wrong: %v", prob.Deps)
	}
}

func TestBuildProblemValidates(t *testing.T) {
	bad := &preproc.Graph{Name: "cyc", Ops: []preproc.Op{
		preproc.NewCast("a", "y", "x"),
		preproc.NewCast("b", "x", "y"),
	}}
	if _, _, err := BuildProblem([]*preproc.Graph{bad}); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	// Every path rejects a missing graph instead of dereferencing it.
	for _, opts := range []Options{{}, {GreedyOnly: true}, {Disable: true}} {
		if _, err := PlanFusionScaled([]ScaledGraph{{Graph: nil, Shape: shape}}, opts); err == nil {
			t.Fatalf("%+v: nil graph accepted", opts)
		}
		if _, err := PlanFusionScaled([]ScaledGraph{{Graph: bad, Shape: shape}}, opts); err == nil {
			t.Fatalf("%+v: cyclic graph accepted", opts)
		}
	}
	if _, err := NewLevelPlanner([]*preproc.Graph{chain("a", "cat_0", 100), nil}); err == nil {
		t.Fatal("level planner accepted a nil graph")
	}
}

// TestLevelPlannerRejectsUnknownGraph: Plan only lowers graphs the
// planner was built with, and a rejected call leaves it usable.
func TestLevelPlannerRejectsUnknownGraph(t *testing.T) {
	a, b := chain("a", "cat_0", 100), chain("b", "cat_1", 100)
	lp, err := NewLevelPlanner([]*preproc.Graph{a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lp.Plan([]ScaledGraph{{Graph: a, Shape: shape}, {Graph: b, Shape: shape}}); err == nil {
		t.Fatal("graph outside the planner accepted")
	}
	got, err := lp.Plan([]ScaledGraph{{Graph: a, Shape: shape}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanFusion([]*preproc.Graph{a}, shape, Options{GreedyOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planner plan %+v, PlanFusion %+v", got, want)
	}
}

// TestPlanFusionDuplicateGraphUsesLastShape pins a known fidelity gap:
// when one GPU holds two pieces of the same graph (a half-split mapping
// move), every op of that graph is costed and lowered at the *last*
// piece's shape, on every fusion path. Giving each piece its own shape
// changes the simulated metrics (gap to Ideal on every benchmark
// workload) and the plan goldens, so it is a deliberate fidelity change
// of its own, not something to fix in passing; this test makes that
// change visible.
func TestPlanFusionDuplicateGraphUsesLastShape(t *testing.T) {
	g := chain("a", "cat_0", 100)
	small := preproc.Shape{Samples: 1024, AvgListLen: 3}
	big := preproc.Shape{Samples: 3072, AvgListLen: 3}
	items := []ScaledGraph{{Graph: g, Shape: small}, {Graph: g, Shape: big}}
	lp, err := NewLevelPlanner([]*preproc.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	fromPlanner, err := lp.Plan(items)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*Plan{fromPlanner}
	for _, opts := range []Options{{}, {GreedyOnly: true}, {Disable: true}} {
		p, err := PlanFusionScaled(items, opts)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	var want float64
	for _, s := range g.Specs(big) {
		want += 2 * s.Elements
	}
	for i, p := range plans {
		if p.NumOps != 6 {
			t.Fatalf("plan %d: %d ops, want both pieces' 6", i, p.NumOps)
		}
		var got float64
		for _, k := range p.Kernels() {
			got += k.Elements
		}
		if got != want {
			t.Fatalf("plan %d: %v elements, want both pieces at the last shape (%v)", i, got, want)
		}
	}
}

func TestPlanFusionMergesAcrossGraphs(t *testing.T) {
	graphs := []*preproc.Graph{
		chain("a", "cat_0", 100), chain("b", "cat_1", 100),
		chain("c", "cat_2", 100), chain("d", "cat_3", 100),
	}
	plan, err := PlanFusion(graphs, shape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumOps != 12 {
		t.Fatalf("NumOps = %d", plan.NumOps)
	}
	// Identical chains fuse level-wise: 3 kernels instead of 12.
	if plan.NumKernels != 3 {
		t.Fatalf("NumKernels = %d, want 3", plan.NumKernels)
	}
	if plan.MaxFusionDegree() != 4 {
		t.Fatalf("MaxFusionDegree = %d, want 4", plan.MaxFusionDegree())
	}
	if !plan.Optimal {
		t.Fatal("small instance should be optimal")
	}
	// Objective: 3 steps × 4² = 48.
	if plan.Objective != 48 {
		t.Fatalf("objective = %d, want 48", plan.Objective)
	}
	// Fused kernel names carry type and degree.
	k := plan.Kernels()
	if len(k) != 3 || !strings.Contains(k[0].Name, "x4") {
		t.Fatalf("kernels = %v", k)
	}
}

func TestPlanFusionRespectsDependencies(t *testing.T) {
	graphs := []*preproc.Graph{chain("a", "cat_0", 100)}
	plan, err := PlanFusion(graphs, shape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A pure chain cannot fuse at all.
	if plan.NumKernels != 3 || plan.MaxFusionDegree() != 1 {
		t.Fatalf("chain plan: kernels=%d degree=%d", plan.NumKernels, plan.MaxFusionDegree())
	}
	// Step order follows the chain.
	for i := 1; i < len(plan.Steps); i++ {
		if plan.Steps[i].Index <= plan.Steps[i-1].Index {
			t.Fatal("steps out of order")
		}
	}
}

func TestPlanFusionDisabled(t *testing.T) {
	graphs := []*preproc.Graph{chain("a", "cat_0", 100), chain("b", "cat_1", 100)}
	plan, err := PlanFusion(graphs, shape, Options{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumKernels != 6 || plan.MaxFusionDegree() != 1 {
		t.Fatalf("disabled fusion: kernels=%d degree=%d", plan.NumKernels, plan.MaxFusionDegree())
	}
	// Unfused total latency strictly exceeds the fused plan's.
	fused, err := PlanFusion(graphs, shape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if totalSoloLatency(fused) >= totalSoloLatency(plan) {
		t.Fatalf("fusion saved nothing: %f vs %f", totalSoloLatency(fused), totalSoloLatency(plan))
	}
}

func TestPlanFusionGreedyOnly(t *testing.T) {
	graphs := []*preproc.Graph{chain("a", "cat_0", 100), chain("b", "cat_1", 100)}
	plan, err := PlanFusion(graphs, shape, Options{GreedyOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Identical chains: greedy already fuses level-wise.
	if plan.NumKernels != 3 {
		t.Fatalf("greedy kernels = %d", plan.NumKernels)
	}
}

func TestPlanFusionEmpty(t *testing.T) {
	plan, err := PlanFusion(nil, shape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumOps != 0 || len(plan.Kernels()) != 0 {
		t.Fatal("empty plan not empty")
	}
}

func TestPlanFusionOnStandardPlans(t *testing.T) {
	for idx := 0; idx < 3; idx++ {
		p := preproc.MustStandardPlan(idx, nil)
		plan, err := PlanFusion(p.Graphs, p.Shape(4096), Options{MaxNodes: 20000})
		if err != nil {
			t.Fatalf("plan %d: %v", idx, err)
		}
		if plan.NumOps != p.NumOps() {
			t.Fatalf("plan %d: ops %d != %d", idx, plan.NumOps, p.NumOps())
		}
		if plan.NumKernels >= plan.NumOps {
			t.Fatalf("plan %d: no compression (%d kernels for %d ops)", idx, plan.NumKernels, plan.NumOps)
		}
		// Element conservation: fused kernels carry every op's elements.
		var fusedEl, rawEl float64
		for _, k := range plan.Kernels() {
			fusedEl += k.Elements
		}
		shape := p.Shape(4096)
		for _, g := range p.Graphs {
			for _, s := range g.Specs(shape) {
				rawEl += s.Elements
			}
		}
		if diff := fusedEl - rawEl; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("plan %d: elements not conserved: %f vs %f", idx, fusedEl, rawEl)
		}
	}
}

func TestPlanFusionConflictResolution(t *testing.T) {
	// Two graphs with opposite FirstX/SigridHash order (the §6.1
	// conflict): fusion must still produce a valid plan and fuse the
	// FillNull heads.
	gA := &preproc.Graph{Name: "A", Ops: []preproc.Op{
		preproc.NewFillNullSparse("A/fn", "cat_0", "a.fn", 0),
		preproc.NewFirstX("A/fx", "a.fn", "a.fx", 10),
		preproc.NewSigridHash("A/sh", "a.fx", "a.sh", 100),
	}}
	gB := &preproc.Graph{Name: "B", Ops: []preproc.Op{
		preproc.NewFillNullSparse("B/fn", "cat_1", "b.fn", 0),
		preproc.NewSigridHash("B/sh", "b.fn", "b.sh", 100),
		preproc.NewFirstX("B/fx", "b.sh", "b.fx", 10),
	}}
	plan, err := PlanFusion([]*preproc.Graph{gA, gB}, shape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 ops; FillNulls fuse; at most one of (FirstX, SigridHash) pairs
	// can fuse (the conflict) -> at least 4, at most 5 kernels.
	if plan.NumKernels < 4 || plan.NumKernels > 5 {
		t.Fatalf("conflict plan kernels = %d", plan.NumKernels)
	}
	foundFNFusion := false
	for _, s := range plan.Steps {
		for i, ids := range s.OpIDs {
			if len(ids) == 2 && s.Kernels[i].Type == preproc.OpFillNull {
				foundFNFusion = true
			}
		}
	}
	if !foundFNFusion {
		t.Fatal("FillNull heads did not fuse")
	}
}

func TestSolveCacheHitMatchesFreshSolve(t *testing.T) {
	graphs := []*preproc.Graph{
		chain("a", "cat_0", 100), chain("b", "cat_1", 100),
		chain("c", "cat_2", 100), chain("d", "cat_3", 100),
	}
	cache := NewSolveCache()
	first, err := PlanFusion(graphs, shape, Options{SolveCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first solve: hits=%d misses=%d", h, m)
	}
	second, err := PlanFusion(graphs, shape, Options{SolveCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := cache.Stats(); h != 1 {
		t.Fatalf("second solve missed the cache (hits=%d)", h)
	}
	fresh, err := PlanFusion(graphs, shape, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Nodes < 1 {
		t.Fatalf("solved plan reports %d nodes", first.Nodes)
	}
	for _, p := range []*Plan{second, fresh} {
		if !reflect.DeepEqual(first.Steps, p.Steps) ||
			first.Objective != p.Objective || first.Optimal != p.Optimal || first.Nodes != p.Nodes {
			t.Fatal("cached plan differs from fresh solve")
		}
	}
}

// TestPlanNodes pins what Plan.Nodes carries: the solve's node count,
// which a truncated solve reports as its whole budget, and 0 where no
// branch & bound runs.
func TestPlanNodes(t *testing.T) {
	p := preproc.MustStandardPlan(2, nil)
	truncated, err := PlanFusion(p.Graphs, p.Shape(4096), Options{MaxNodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if truncated.Optimal || truncated.Nodes != 50 {
		t.Fatalf("50-node budget: optimal=%v nodes=%d", truncated.Optimal, truncated.Nodes)
	}
	for _, opts := range []Options{{GreedyOnly: true}, {Disable: true}} {
		plan, err := PlanFusion(p.Graphs, p.Shape(4096), opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Nodes != 0 {
			t.Fatalf("%+v: nodes = %d, want 0", opts, plan.Nodes)
		}
	}
}

// TestPlanFusionMaxNodes: MaxNodes 0 selects fusion's size-scaled
// budget, a positive value caps the solve, and a negative one is
// milp.ErrNegativeLimit instead of the 2,000,000-node default.
func TestPlanFusionMaxNodes(t *testing.T) {
	p := preproc.MustStandardPlan(2, nil)
	for _, tc := range []struct {
		maxNodes int
		wantErr  bool
	}{
		{0, false},
		{50, false},
		{-1, true},
	} {
		plan, err := PlanFusion(p.Graphs, p.Shape(4096), Options{MaxNodes: tc.maxNodes})
		if tc.wantErr {
			if !errors.Is(err, milp.ErrNegativeLimit) {
				t.Fatalf("MaxNodes %d: err = %v, want milp.ErrNegativeLimit", tc.maxNodes, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("MaxNodes %d: %v", tc.maxNodes, err)
		}
		if want := tc.maxNodes; want == 0 {
			if plan.Nodes > budgetFor(plan.NumOps) {
				t.Fatalf("MaxNodes 0: %d nodes over the default budget %d", plan.Nodes, budgetFor(plan.NumOps))
			}
		} else if plan.Nodes != want {
			t.Fatalf("MaxNodes %d: %d nodes", want, plan.Nodes)
		}
	}
}

func TestSolveCacheKeyCoversBudget(t *testing.T) {
	graphs := []*preproc.Graph{chain("a", "cat_0", 100), chain("b", "cat_1", 100)}
	cache := NewSolveCache()
	if _, err := PlanFusion(graphs, shape, Options{SolveCache: cache}); err != nil {
		t.Fatal(err)
	}
	// A different node budget is a different problem; it must not hit.
	if _, err := PlanFusion(graphs, shape, Options{SolveCache: cache, MaxNodes: 17}); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 0 || m != 2 {
		t.Fatalf("budget change hit the cache: hits=%d misses=%d", h, m)
	}
}

// TestSolveKeyExact checks that solveKey separates problems that differ
// only in where one op's dependency list ends and the next op's type
// begins, or in one field's sign, and gives equal problems equal keys.
func TestSolveKeyExact(t *testing.T) {
	problems := []milp.Problem{
		{Types: []int{1, 2}, Deps: [][]int{nil, {0}}},
		{Types: []int{1, 0}, Deps: [][]int{{2}, nil}},
		{Types: []int{1, 2}, Deps: [][]int{nil, {0}}, Horizon: 3},
		{Types: []int{1, 2}, Deps: [][]int{nil, {0}}, MaxNodes: 3},
		{Types: []int{1, 2}, Deps: [][]int{nil, {0}}, MaxNodes: -3},
		{Types: []int{1}, Deps: [][]int{nil}},
		{},
	}
	seen := map[string]int{}
	for i, p := range problems {
		k := solveKey(p)
		if j, dup := seen[k]; dup {
			t.Fatalf("problems %d and %d share key %q", j, i, k)
		}
		seen[k] = i
		same := milp.Problem{Types: append([]int(nil), p.Types...), Horizon: p.Horizon, MaxNodes: p.MaxNodes}
		for _, ds := range p.Deps {
			same.Deps = append(same.Deps, append([]int{}, ds...))
		}
		if solveKey(same) != k {
			t.Fatalf("problem %d: a deep copy has a different key", i)
		}
	}
}

// totalSoloLatency sums the solo latency of every fused kernel.
func totalSoloLatency(p *Plan) float64 {
	t := 0.0
	for _, s := range p.Steps {
		for _, k := range s.Kernels {
			t += k.SoloLatency()
		}
	}
	return t
}
