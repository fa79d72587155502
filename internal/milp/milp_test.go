package milp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestObjective(t *testing.T) {
	// Two type-0 ops fused at step 0 plus one type-1 op: 2² + 1² = 5.
	if got := Objective([]int{0, 0, 1}, []int{0, 0, 0}); got != 5 {
		t.Fatalf("objective = %d, want 5", got)
	}
	// Fully spread: 1+1+1.
	if got := Objective([]int{0, 0, 1}, []int{0, 1, 0}); got != 3 {
		t.Fatalf("objective = %d, want 3", got)
	}
}

func TestValidate(t *testing.T) {
	p := Problem{Types: []int{0, 0}, Deps: [][]int{nil, {0}}}
	if err := Validate(p, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, []int{0, 0}); err == nil {
		t.Fatal("dependency violation accepted")
	}
	if err := Validate(p, []int{1, 0}); err == nil {
		t.Fatal("inverted order accepted")
	}
	if err := Validate(p, []int{0}); err == nil {
		t.Fatal("short steps accepted")
	}
	if err := Validate(p, []int{-1, 0}); err == nil {
		t.Fatal("negative step accepted")
	}
	// Malformed problems are errors, not index-out-of-range panics.
	if err := Validate(Problem{Types: []int{0}}, []int{0}); err == nil {
		t.Fatal("missing dep lists accepted")
	}
	if err := Validate(Problem{Types: []int{0, 0}, Deps: [][]int{nil, {5}}}, []int{0, 1}); err == nil {
		t.Fatal("dep past the last op accepted")
	}
	if err := Validate(Problem{Types: []int{0, 0}, Deps: [][]int{nil, {-1}}}, []int{0, 1}); err == nil {
		t.Fatal("negative dep accepted")
	}
}

func TestSolveEmpty(t *testing.T) {
	sol, err := Solve(Problem{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal || len(sol.Step) != 0 {
		t.Fatalf("empty solve = %+v", sol)
	}
}

func TestSolveIndependentSameType(t *testing.T) {
	// 4 independent same-type ops: all fuse at one step, objective 16.
	p := Problem{Types: []int{0, 0, 0, 0}, Deps: make([][]int, 4)}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 16 {
		t.Fatalf("objective = %d, want 16", sol.Objective)
	}
	if !sol.Optimal {
		t.Fatal("tiny instance not optimal")
	}
	if err := Validate(p, sol.Step); err != nil {
		t.Fatal(err)
	}
}

// TestSolveRootPrune pins the greedy-already-optimal shortcut:
// independent same-type ops fuse maximally at step 0, the root bound
// equals the greedy objective, and the search stops at the root node.
func TestSolveRootPrune(t *testing.T) {
	n := 16
	p := Problem{Types: make([]int, n), Deps: make([][]int, n)}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * int64(n); sol.Objective != want {
		t.Fatalf("objective = %d, want %d", sol.Objective, want)
	}
	if !sol.Optimal || sol.Nodes != 1 {
		t.Fatalf("root prune not taken: %+v", sol)
	}
}

func TestSolveChainCannotFuse(t *testing.T) {
	// A chain of same-type ops can never fuse (data dependencies).
	p := Problem{Types: []int{0, 0, 0}, Deps: [][]int{nil, {0}, {1}}}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %d, want 3", sol.Objective)
	}
	if err := Validate(p, sol.Step); err != nil {
		t.Fatal(err)
	}
}

func TestSolveBeatsGreedy(t *testing.T) {
	// The X/Y conflict: chains X0→Y0 and Y1→X1. Level greedy puts X0,Y1
	// at step 0 and Y0,X1 at step 1 (objective 4). Optimal delays X1 to
	// step 2 so Y0 and Y1 fuse... but Y1 is at step 0 and Y0 at step 1 —
	// the real optimum delays Y0's consumer: steps X0@0, Y0@1, Y1@0 —
	// fuse Y? Y0 depends on X0 so Y0 ≥ 1, Y1 at 1 too: X1 then ≥ 2.
	// Objective: Y degree 2 (=4) + X 1+1 = 6 > greedy 4.
	types := []int{0, 1, 1, 0} // X0, Y0, Y1, X1
	deps := [][]int{nil, {0}, nil, {2}}
	p := Problem{Types: types, Deps: deps}
	greedy, err := GreedyLevels(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, sol.Step); err != nil {
		t.Fatal(err)
	}
	if sol.Objective <= greedy.Objective {
		t.Fatalf("B&B (%d) did not beat greedy (%d)", sol.Objective, greedy.Objective)
	}
	if sol.Objective != 6 {
		t.Fatalf("objective = %d, want 6", sol.Objective)
	}
	if !sol.Optimal {
		t.Fatal("should be optimal")
	}
}

func TestSolveRejectsInfeasibleHorizon(t *testing.T) {
	// A chain of 3 needs 3 steps; horizon 2 cannot hold it. The solver
	// used to silently widen the horizon to the critical path and claim
	// Optimal=true for a horizon the caller never set; now it reports
	// the infeasibility explicitly.
	p := Problem{Types: []int{0, 0, 0}, Deps: [][]int{nil, {0}, {1}}, Horizon: 2}
	if _, err := Solve(p); !errors.Is(err, ErrInfeasibleHorizon) {
		t.Fatalf("err = %v, want ErrInfeasibleHorizon", err)
	}
	// A horizon exactly at the critical path is feasible.
	p.Horizon = 3
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, sol.Step); err != nil {
		t.Fatal(err)
	}
}

// TestSolveLimits: 0 selects the default horizon and node budget, a
// positive value is used as given, and a negative one is an error.
func TestSolveLimits(t *testing.T) {
	// X0→Y0 and Y1→X1: the full search at the default horizon takes more
	// than 3 nodes and finishes optimal at objective 6.
	base := Problem{Types: []int{0, 1, 1, 0}, Deps: [][]int{nil, {0}, nil, {2}}}
	for _, tc := range []struct {
		name              string
		horizon, maxNodes int
		wantErr           bool
		optimal           bool
	}{
		{"defaults", 0, 0, false, true},
		{"critical-path horizon", 2, 0, false, true},
		{"three-node budget", 0, 3, false, false},
		{"negative horizon", -1, 0, true, false},
		{"negative budget", 0, -1, true, false},
		{"both negative", -3, -2, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			p.Horizon, p.MaxNodes = tc.horizon, tc.maxNodes
			sol, err := Solve(p)
			if tc.wantErr {
				if !errors.Is(err, ErrNegativeLimit) {
					t.Fatalf("err = %v, want ErrNegativeLimit", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sol.Optimal != tc.optimal {
				t.Fatalf("optimal = %v, want %v (%+v)", sol.Optimal, tc.optimal, sol)
			}
			if tc.maxNodes > 0 && sol.Nodes != tc.maxNodes {
				t.Fatalf("nodes = %d, want the %d-node budget", sol.Nodes, tc.maxNodes)
			}
			if err := Validate(p, sol.Step); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSolveNodeBudget(t *testing.T) {
	// A large instance under a tiny budget returns a valid incumbent and
	// reports non-optimality.
	n := 40
	types := make([]int, n)
	deps := make([][]int, n)
	rng := rand.New(rand.NewSource(1))
	for i := range types {
		types[i] = rng.Intn(3)
		if i > 0 && rng.Intn(2) == 0 {
			deps[i] = []int{rng.Intn(i)}
		}
	}
	p := Problem{Types: types, Deps: deps, MaxNodes: 50}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Optimal {
		t.Fatal("claimed optimality under 50-node budget")
	}
	if err := Validate(p, sol.Step); err != nil {
		t.Fatal(err)
	}
	if sol.Objective <= 0 {
		t.Fatal("no incumbent")
	}
}

func TestSolveCycleRejected(t *testing.T) {
	p := Problem{Types: []int{0, 0}, Deps: [][]int{{1}, {0}}}
	if _, err := Solve(p); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := Solve(Problem{Types: []int{0}, Deps: [][]int{{5}}}); err == nil {
		t.Fatal("dangling dep accepted")
	}
	if _, err := Solve(Problem{Types: []int{0}, Deps: nil}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// Property: the solved objective is never below the greedy warm start
// and solutions always validate.
func TestSolveNeverWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		types := make([]int, n)
		deps := make([][]int, n)
		for i := 0; i < n; i++ {
			types[i] = rng.Intn(4)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.2 {
					deps[i] = append(deps[i], j)
				}
			}
		}
		p := Problem{Types: types, Deps: deps, MaxNodes: 200_000}
		greedy, err := GreedyLevels(p)
		if err != nil {
			return false
		}
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		return sol.Objective >= greedy.Objective && Validate(p, sol.Step) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
