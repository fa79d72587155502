// Package milp solves the horizontal-fusion integer program of RAP §6.2
// (the role Gurobi plays in the paper's artifact).
//
// The formulation: N preprocessing operations are assigned to time steps
// through a binary matrix F where F[i][t]=1 means op i executes at step
// t. Constraints: every op takes exactly one step (Eq. 1) and an op
// executes strictly after everything it depends on (Eq. 2). Operations
// of the same type assigned to the same step fuse into one kernel, and
// the objective maximizes Σ_type Σ_t (Σ_{i∈type} F[i][t])² — the sum of
// squared fusion degrees (Eqs. 3-4).
//
// The solver is an exact branch & bound over step assignments in
// topological order with an admissible clustering bound, warm-started by
// the level-greedy solution (fuse same-type ops sharing an ASAP level,
// always feasible since equal levels imply incomparability). Within the
// configured horizon the result is provably optimal; if the node budget
// is exhausted the incumbent is returned with Optimal=false — mirroring
// how a time-limited MILP solver behaves.
package milp

import (
	"errors"
	"fmt"
)

// Problem is one fusion MILP instance.
type Problem struct {
	// Types assigns each op a fusion group id (the operator type); ops
	// may only fuse within a type.
	Types []int
	// Deps lists, per op, the ops it depends on (Eq. 2 pairs).
	Deps [][]int
	// Horizon bounds the number of time steps explored. 0 selects
	// critical-path length + DefaultSlack, which is enough for every
	// plan in this repo and keeps the search exact. A positive horizon
	// below the critical-path length is infeasible and rejected with
	// ErrInfeasibleHorizon.
	Horizon int
	// MaxNodes bounds the branch & bound search (0 = DefaultMaxNodes).
	// When the budget runs out, Solve returns the incumbent with
	// Optimal=false.
	MaxNodes int
}

// ErrInfeasibleHorizon reports a caller-set Horizon smaller than the
// dependency critical path: no feasible step assignment exists within
// it. (Solve used to silently widen the horizon and then claim
// Optimal=true for a horizon the caller never asked for.)
var ErrInfeasibleHorizon = errors.New("milp: horizon below dependency critical path")

// DefaultSlack is the extra horizon beyond the critical path explored by
// default. Delaying an op past its ASAP level is exactly what lets
// conflicting fusion chains resolve (see TestSolveBeatsGreedy).
const DefaultSlack = 3

// DefaultMaxNodes is the default search-node budget.
const DefaultMaxNodes = 2_000_000

// Solution is the solver output.
type Solution struct {
	// Step[i] is the time step of op i.
	Step []int
	// Objective is Σ_type Σ_t degree², the fusion objective value.
	Objective int64
	// Optimal reports whether the search completed within budget.
	Optimal bool
	// Nodes is the number of branch & bound nodes explored, at most
	// the MaxNodes budget.
	Nodes int
}

// Objective evaluates the fusion objective for a step assignment.
func Objective(types, steps []int) int64 {
	counts := map[[2]int]int64{}
	for i, ty := range types {
		counts[[2]int{ty, steps[i]}]++
	}
	var obj int64
	for _, c := range counts {
		obj += c * c
	}
	return obj
}

// Validate checks a step assignment against the problem constraints
// (Eq. 1 is implicit in the representation; Eq. 2 is the ordering).
func Validate(p Problem, steps []int) error {
	if err := checkShape(p); err != nil {
		return err
	}
	if len(steps) != len(p.Types) {
		return fmt.Errorf("milp: %d steps for %d ops", len(steps), len(p.Types))
	}
	for i, s := range steps {
		if s < 0 {
			return fmt.Errorf("milp: op %d at negative step %d", i, s)
		}
		for _, d := range p.Deps[i] {
			if d < 0 || d >= len(steps) {
				return fmt.Errorf("milp: op %d depends on unknown op %d", i, d)
			}
			if steps[d] >= s {
				return fmt.Errorf("milp: op %d (step %d) does not follow its dependency %d (step %d)",
					i, s, d, steps[d])
			}
		}
	}
	return nil
}

// TopoOrder returns a topological order of the dependency DAG (Kahn's
// algorithm, ready ops in index order).
func TopoOrder(deps [][]int) ([]int, error) {
	n := len(deps)
	indeg := make([]int, n)
	children := make([][]int, n)
	for i, ds := range deps {
		for _, d := range ds {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("milp: op %d depends on unknown op %d", i, d)
			}
			indeg[i]++
			children[d] = append(children[d], i)
		}
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, c := range children[v] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("milp: dependency cycle")
	}
	return order, nil
}

// asapLevels computes each op's earliest step.
func asapLevels(deps [][]int, order []int) []int {
	levels := make([]int, len(deps))
	for _, i := range order {
		for _, d := range deps[i] {
			if levels[d]+1 > levels[i] {
				levels[i] = levels[d] + 1
			}
		}
	}
	return levels
}

// GreedyLevels returns the warm-start solution: every op at its ASAP
// level. Ops of one type sharing a level are incomparable (a dependency
// path strictly increases the level), so this is always feasible.
//
//rap:deterministic
func GreedyLevels(p Problem) (Solution, error) {
	if err := checkShape(p); err != nil {
		return Solution{}, err
	}
	order, err := TopoOrder(p.Deps)
	if err != nil {
		return Solution{}, err
	}
	steps := asapLevels(p.Deps, order)
	return Solution{Step: steps, Objective: Objective(p.Types, steps), Optimal: false}, nil
}

func checkShape(p Problem) error {
	if len(p.Types) != len(p.Deps) {
		return fmt.Errorf("milp: %d types for %d dep lists", len(p.Types), len(p.Deps))
	}
	return nil
}

// Solve runs the branch & bound: ops are placed in topological order,
// candidate steps most-promising first, warm-started with the level
// greedy incumbent and pruned by the admissible clustering bound.
//
//rap:deterministic
func Solve(p Problem) (Solution, error) {
	if err := checkShape(p); err != nil {
		return Solution{}, err
	}
	n := len(p.Types)
	order, err := TopoOrder(p.Deps)
	if err != nil {
		return Solution{}, err
	}
	asap := asapLevels(p.Deps, order)
	cp := 0
	for _, l := range asap {
		if l+1 > cp {
			cp = l + 1
		}
	}
	if p.Horizon > 0 && p.Horizon < cp {
		return Solution{}, fmt.Errorf("milp: horizon %d cannot hold the %d-step critical path: %w",
			p.Horizon, cp, ErrInfeasibleHorizon)
	}
	if n == 0 {
		return Solution{Step: []int{}, Optimal: true}, nil
	}
	horizon := p.Horizon
	if horizon <= 0 {
		horizon = cp + DefaultSlack
	}
	maxNodes := p.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	// Intern the type values to dense ids 0..nt-1 in order of first use.
	ids := map[int]int{}
	types := make([]int, n)
	for i, ty := range p.Types {
		id, ok := ids[ty]
		if !ok {
			id = len(ids)
			ids[ty] = id
		}
		types[i] = id
	}
	nt := len(ids)

	// remaining[k*nt+ty] counts the type-ty ops at topo positions ≥ k,
	// for the admissible bound.
	remaining := make([]int64, (n+1)*nt)
	for k := n - 1; k >= 0; k-- {
		copy(remaining[k*nt:(k+1)*nt], remaining[(k+1)*nt:(k+2)*nt])
		remaining[k*nt+types[order[k]]]++
	}

	s := &solver{
		deps:      p.Deps,
		types:     types,
		order:     order,
		horizon:   horizon,
		maxNodes:  maxNodes,
		remaining: remaining,
		steps:     make([]int, n),
		counts:    make([]int64, nt*horizon),
		maxCount:  make([]int64, nt),
		cands:     make([]int, n*horizon),
		// The level greedy (every op at its ASAP level) is the warm start.
		best:    asap,
		bestObj: Objective(p.Types, asap),
		optimal: true,
	}
	s.dfs(0, 0)
	return Solution{Step: s.best, Objective: s.bestObj, Optimal: s.optimal, Nodes: s.nodes}, nil
}

// solver holds the search state in flat arrays indexed by dense type
// id, step and topo position, so a node does no map lookups and no
// allocation.
type solver struct {
	deps      [][]int
	types     []int // op -> dense type id
	order     []int
	horizon   int
	maxNodes  int
	nodes     int
	remaining []int64 // [k*nt+type], nt = len(maxCount): ops of the type at topo positions ≥ k

	steps    []int
	counts   []int64 // [type*horizon+step]: fusion degree
	maxCount []int64 // [type]: max degree so far (for the bound)
	cands    []int   // [k*horizon:(k+1)*horizon]: depth k's candidate steps

	best    []int
	bestObj int64
	optimal bool
}

// bound returns an admissible upper bound on the objective reachable
// from position k with current partial objective obj: every remaining op
// of a type could, at best, join that type's largest group g, adding
// (g+r)² − g² = r(2g+r).
func (s *solver) bound(k int, obj int64) int64 {
	b := obj
	nt := len(s.maxCount)
	for ty, r := range s.remaining[k*nt : (k+1)*nt] {
		g := s.maxCount[ty]
		b += r * (2*g + r)
	}
	return b
}

func (s *solver) dfs(k int, obj int64) {
	if s.nodes >= s.maxNodes {
		s.optimal = false
		return
	}
	s.nodes++
	if k == len(s.order) {
		if obj > s.bestObj {
			s.bestObj = obj
			copy(s.best, s.steps)
		}
		return
	}
	if s.bound(k, obj) <= s.bestObj {
		return
	}
	op := s.order[k]
	minStep := 0
	for _, d := range s.deps[op] {
		if s.steps[d]+1 > minStep {
			minStep = s.steps[d] + 1
		}
	}
	if minStep >= s.horizon {
		return // infeasible branch under this horizon
	}
	ty := s.types[op]
	counts := s.counts[ty*s.horizon : (ty+1)*s.horizon]

	// Candidate steps, most promising first: join the largest existing
	// same-type group, then earliest-first. (count desc, step asc) is a
	// strict total order, so inserting steps in ascending order gives
	// exactly the stable sort by count.
	cands := s.cands[k*s.horizon : k*s.horizon : (k+1)*s.horizon]
	for t := minStep; t < s.horizon; t++ {
		c := counts[t]
		cands = append(cands, t)
		j := len(cands) - 1
		for ; j > 0 && counts[cands[j-1]] < c; j-- {
			cands[j] = cands[j-1]
		}
		cands[j] = t
	}

	for _, t := range cands {
		c := counts[t]
		counts[t] = c + 1
		prevMax := s.maxCount[ty]
		if c+1 > prevMax {
			s.maxCount[ty] = c + 1
		}
		s.steps[op] = t
		s.dfs(k+1, obj+2*c+1) // (c+1)² − c²
		counts[t] = c
		s.maxCount[ty] = prevMax
		if s.nodes >= s.maxNodes {
			s.optimal = false
			return
		}
	}
}
