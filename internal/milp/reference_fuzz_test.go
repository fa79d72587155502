package milp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// referenceBudget caps the search FuzzSolveMatchesReference compares
// first. Within it the budget modes are exact: when that search
// finishes, its node count is the whole search's.
const referenceBudget = 20_000

// sweepNodes is the largest first search whose every truncation
// FuzzSolveMatchesReference compares.
const sweepNodes = 300

// FuzzSolveMatchesReference holds Solve to solveReference, the
// one-node-at-a-time search it replaced, on every Solution field. The
// instances are random DAGs of up to 64 ops, many of them
// interchangeable (same type, same dependencies), with op ids
// shuffled so topological order differs from index order. The horizon
// is 0, exactly the critical path or above it. Each instance is solved
// under referenceBudget and then under a budget of 1, a truncated
// budget, exactly the first search's node count and one node more; a
// first search of at most sweepNodes nodes is compared under every
// budget up to one past its count.
// Tier-1 runs the seed corpus below; explore further with
//
//	go test -run '^$' -fuzz FuzzSolveMatchesReference -fuzztime 60s ./internal/milp
//
// The arguments map onto 1–64 ops, 1–8 types, a twin rate of 0–3
// quarters and a horizon mode.
func FuzzSolveMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		ops := uint8(8 + seed*5)
		types := uint8(1 + seed%8)
		twins := uint8(seed % 4)
		for h := uint8(0); h < numHorizonModes; h++ {
			f.Add(seed, ops, types, twins, h)
		}
	}
	// A search whose last node is one with no feasible step: only the
	// check after its return clears Optimal at the exact budget.
	f.Add(int64(-6), uint8(13), uint8(2), uint8(1), uint8(horizonCritical))
	f.Fuzz(func(t *testing.T, seed int64, ops, types, twins, horizonMode uint8) {
		n := 1 + int(ops-1)%64
		nt := 1 + int(types-1)%8
		rng := rand.New(rand.NewSource(seed))
		p := tiedProblem(rng, n, nt, int(twins)%4)
		greedy, err := GreedyLevels(p)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		cp := 0
		for _, s := range greedy.Step {
			cp = max(cp, s+1)
		}
		switch int(horizonMode) % numHorizonModes {
		case horizonCritical:
			p.Horizon = cp
		case horizonAbove:
			p.Horizon = cp + 1 + rng.Intn(3)
		}

		p.MaxNodes = referenceBudget
		first := matchReference(t, p)
		budgets := []int{1, 1 + rng.Intn(first.Nodes), first.Nodes, first.Nodes + 1}
		if first.Nodes <= sweepNodes {
			// Every budget edge: the search stopped after each node.
			budgets = budgets[:0]
			for b := 1; b <= first.Nodes+1; b++ {
				budgets = append(budgets, b)
			}
		}
		for _, budget := range budgets {
			p.MaxNodes = budget
			matchReference(t, p)
		}
	})
}

// matchReference solves p with Solve and solveReference and fails the
// test unless every Solution field agrees.
func matchReference(t *testing.T, p Problem) Solution {
	t.Helper()
	want, err := solveReference(p)
	if err != nil {
		t.Fatalf("reference (horizon %d, budget %d): %v", p.Horizon, p.MaxNodes, err)
	}
	got, err := Solve(p)
	if err != nil {
		t.Fatalf("solve (horizon %d, budget %d): %v", p.Horizon, p.MaxNodes, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("horizon %d, budget %d: solution differs from the reference:\ngot  %+v\nwant %+v",
			p.Horizon, p.MaxNodes, got, want)
	}
	return got
}

// tiedProblem draws a DAG of n ops over nt types, skewed toward the
// first types. With probability twins/4 an op copies the type and
// dependencies of an earlier op, so the search meets many
// interchangeable ops and many equal-degree candidate steps. Ops are
// drawn in a topological order and then given shuffled ids.
func tiedProblem(rng *rand.Rand, n, nt, twins int) Problem {
	types := make([]int, n)
	deps := make([][]int, n)
	density := []float64{0, 0.03, 0.08, 0.2}[rng.Intn(4)]
	for a := range n {
		if a > 0 && rng.Intn(4) < twins {
			b := rng.Intn(a)
			types[a], deps[a] = types[b], slices.Clone(deps[b])
			continue
		}
		types[a] = 5*min(rng.Intn(nt), rng.Intn(nt)) - 7
		for b := range a {
			if rng.Float64() < density {
				deps[a] = append(deps[a], b)
			}
		}
	}
	id := rng.Perm(n)
	p := Problem{Types: make([]int, n), Deps: make([][]int, n)}
	for a := range n {
		p.Types[id[a]] = types[a]
		for _, b := range deps[a] {
			p.Deps[id[a]] = append(p.Deps[id[a]], id[b])
		}
	}
	return p
}
