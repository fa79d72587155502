package milp

import (
	"math/rand"
	"reflect"
	"testing"
)

// Horizon and budget modes of FuzzSolve.
const (
	horizonDefault  = iota // Horizon 0: critical path + DefaultSlack
	horizonCritical        // exactly the critical path
	horizonAbove           // 1–3 steps above the critical path
	numHorizonModes
)

const (
	budgetDefault   = iota // MaxNodes 0: DefaultMaxNodes
	budgetOne              // MaxNodes 1: the root only
	budgetJustAbove        // one node more than the full search takes
	budgetTruncated        // 1..full node count
	numBudgetModes
)

// FuzzSolve checks Solve on random DAGs of up to 12 ops and 4 types,
// under every horizon and node-budget edge mode, against properties
// every solution must have and, on instances of at most 8 ops, against
// a dependency-pruned brute force. Tier-1 runs the seed corpus below;
// explore further with
//
//	go test -run '^$' -fuzz FuzzSolve -fuzztime 60s ./internal/milp
//
// The arguments map onto 1–12 ops, 1–4 types, a horizon mode and a
// budget mode; in-range values map to themselves.
func FuzzSolve(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		ops := uint8(1 + seed%12)
		types := uint8(1 + seed%4)
		if seed >= 12 {
			ops = 8 // the largest size brute force still checks
		}
		for h := uint8(0); h < numHorizonModes; h++ {
			for b := uint8(0); b < numBudgetModes; b++ {
				f.Add(seed, ops, types, h, b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, ops, types, horizonMode, budgetMode uint8) {
		n := 1 + int(ops-1)%12
		nt := 1 + int(types-1)%4
		rng := rand.New(rand.NewSource(seed))
		p := fuzzProblem(rng, n, nt)
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
		horizon := p.Horizon
		if horizon == 0 {
			horizon = cp + DefaultSlack
		}

		full, err := Solve(p)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		switch int(budgetMode) % numBudgetModes {
		case budgetOne:
			p.MaxNodes = 1
		case budgetJustAbove:
			p.MaxNodes = full.Nodes + 1
		case budgetTruncated:
			p.MaxNodes = 1 + rng.Intn(full.Nodes)
		}
		sol := full
		if p.MaxNodes != 0 {
			if sol, err = Solve(p); err != nil {
				t.Fatalf("solve with MaxNodes %d: %v", p.MaxNodes, err)
			}
		}
		budget := p.MaxNodes
		if budget == 0 {
			budget = DefaultMaxNodes
		}

		if err := Validate(p, sol.Step); err != nil {
			t.Fatalf("invalid solution %v: %v", sol.Step, err)
		}
		for i, s := range sol.Step {
			if s >= horizon {
				t.Fatalf("op %d at step %d, horizon %d", i, s, horizon)
			}
		}
		if obj := Objective(p.Types, sol.Step); sol.Objective != obj {
			t.Fatalf("reported objective %d, steps evaluate to %d", sol.Objective, obj)
		}
		if sol.Objective < greedy.Objective {
			t.Fatalf("objective %d below greedy %d", sol.Objective, greedy.Objective)
		}
		if sol.Nodes < 1 || sol.Nodes > budget {
			t.Fatalf("%d nodes under budget %d", sol.Nodes, budget)
		}
		if p.MaxNodes == full.Nodes+1 && full.Optimal && !reflect.DeepEqual(sol, full) {
			t.Fatalf("budget one above the full search changed the result:\n%+v\nvs\n%+v", sol, full)
		}
		if n > 8 {
			return
		}
		bf := bruteForce(p, horizon)
		if sol.Optimal && sol.Objective != bf {
			t.Fatalf("optimal objective %d, brute force %d", sol.Objective, bf)
		}
		if sol.Objective > bf {
			t.Fatalf("objective %d above brute force %d", sol.Objective, bf)
		}
	})
}

// fuzzProblem draws a DAG of n ops over nt types. Type ids are dense,
// sparse or negative, and dependencies follow a random permutation, so
// topological order differs from index order.
func fuzzProblem(rng *rand.Rand, n, nt int) Problem {
	ids := make([]int, nt)
	for i := range ids {
		switch rng.Intn(3) {
		case 0:
			ids[i] = i
		case 1:
			ids[i] = 1000*i - 500
		default:
			ids[i] = -7 * (i + 1)
		}
	}
	p := Problem{Types: make([]int, n), Deps: make([][]int, n)}
	for i := range p.Types {
		p.Types[i] = ids[rng.Intn(nt)]
	}
	perm := rng.Perm(n)
	density := []float64{0, 0.15, 0.3, 0.5}[rng.Intn(4)]
	for a := 1; a < n; a++ {
		for b := 0; b < a; b++ {
			if rng.Float64() < density {
				p.Deps[perm[a]] = append(p.Deps[perm[a]], perm[b])
			}
		}
	}
	return p
}

// bruteForce returns the best objective over every step assignment
// within the horizon that respects the dependencies. It places ops in a
// topological order of its own and tries, for each, only the steps after
// all of its dependencies, keeping per-(type, step) degrees in a map.
func bruteForce(p Problem, horizon int) int64 {
	n := len(p.Types)
	var order []int
	placed := make([]bool, n)
	for len(order) < n {
		for i := 0; i < n; i++ {
			ready := !placed[i]
			for _, d := range p.Deps[i] {
				ready = ready && placed[d]
			}
			if ready {
				placed[i] = true
				order = append(order, i)
			}
		}
	}
	steps := make([]int, n)
	degree := map[[2]int]int64{}
	var best int64 = -1
	var rec func(k int, obj int64)
	rec = func(k int, obj int64) {
		if k == n {
			best = max(best, obj)
			return
		}
		op := order[k]
		lo := 0
		for _, d := range p.Deps[op] {
			lo = max(lo, steps[d]+1)
		}
		for t := lo; t < horizon; t++ {
			key := [2]int{p.Types[op], t}
			c := degree[key]
			degree[key] = c + 1
			steps[op] = t
			rec(k+1, obj+(c+1)*(c+1)-c*c)
			degree[key] = c
		}
	}
	rec(0, 0)
	return best
}
