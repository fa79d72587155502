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
	// ErrInfeasibleHorizon; a negative one with ErrNegativeLimit.
	Horizon int
	// MaxNodes bounds the branch & bound search (0 = DefaultMaxNodes;
	// negative is rejected with ErrNegativeLimit). When the budget runs
	// out, Solve returns the incumbent with Optimal=false.
	MaxNodes int
}

// ErrInfeasibleHorizon reports a caller-set Horizon smaller than the
// dependency critical path: no feasible step assignment exists within
// it. (Solve used to silently widen the horizon and then claim
// Optimal=true for a horizon the caller never asked for.)
var ErrInfeasibleHorizon = errors.New("milp: horizon below dependency critical path")

// ErrNegativeLimit reports a negative Horizon or MaxNodes. Only 0
// selects a default, so a mistyped budget such as -1 fails instead of
// searching DefaultMaxNodes nodes.
var ErrNegativeLimit = errors.New("milp: negative horizon or node budget")

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
// path strictly increases the level), so this is always feasible. Kept
// for fusion's level fuzz, which checks LevelPlanner against it.
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
	if p.Horizon < 0 || p.MaxNodes < 0 {
		return Solution{}, fmt.Errorf("milp: horizon %d, node budget %d: %w", p.Horizon, p.MaxNodes, ErrNegativeLimit)
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
	if horizon == 0 {
		horizon = cp + DefaultSlack
	}
	maxNodes := p.MaxNodes
	if maxNodes == 0 {
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

	s := &solver{
		deps:     p.Deps,
		types:    types,
		order:    order,
		horizon:  horizon,
		maxNodes: maxNodes,
		rem:      make([]int64, n),
		steps:    make([]int, n),
		counts:   make([]int64, nt*horizon),
		maxCount: make([]int64, nt),
		cands:    make([]int, n*horizon),
		// The level greedy (every op at its ASAP level) is the warm start.
		best:    asap,
		bestObj: Objective(p.Types, asap),
		optimal: true,
	}
	// rem[k] counts the ops of position k's type at topo positions ≥ k:
	// that type's r in the bound while order[k] is being placed. The
	// per-type totals, counted in maxCount before the search zeroes it,
	// give the root's Σ_type r(2g+r) with every degree g still 0.
	for k := n - 1; k >= 0; k-- {
		ty := types[order[k]]
		s.maxCount[ty]++
		s.rem[k] = s.maxCount[ty]
	}
	var slack int64
	for _, r := range s.maxCount {
		slack += r * r
	}
	clear(s.maxCount)

	// The root is counted (every budget is at least 1) and expanded
	// only if its bound, slack, beats the warm start.
	s.nodes = 1
	if slack > s.bestObj {
		s.dfs(0, 0, slack)
	}
	return Solution{Step: s.best, Objective: s.bestObj, Optimal: s.optimal, Nodes: s.nodes}, nil
}

// solver holds the search state in flat arrays indexed by dense type
// id, step and topo position, so a node does no map lookups and no
// allocation.
type solver struct {
	deps     [][]int
	types    []int // op -> dense type id
	order    []int
	horizon  int
	maxNodes int
	nodes    int
	rem      []int64 // [k]: ops of order[k]'s type at topo positions ≥ k

	steps    []int
	counts   []int64 // [type*horizon+step]: fusion degree
	maxCount []int64 // [type]: max degree so far (for the bound)
	cands    []int   // [k*horizon:(k+1)*horizon]: depth k's candidate steps

	best    []int
	bestObj int64
	optimal bool
}

// dfs expands the node at depth k, already counted, whose partial
// objective is obj and whose bound obj+slack beats the incumbent.
// slack is the clustering bound's running part: every op at positions
// ≥ k could, at best, join its type's largest group g, so a type with
// r such ops adds at most (g+r)² − g² = r(2g+r).
//
// Nodes are counted as in a search that enters each child in turn to
// check the budget, count it, then prune, evaluate or expand it. Here
// the children's bounds are computed before descending, and a pruned
// child or a leaf that cannot win ends the loop with its later siblings
// counted in one step (see count).
func (s *solver) dfs(k int, obj, slack int64) {
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

	// The first candidate, the largest degree at the earliest step, has
	// the best child: the largest leaf objective and the largest bound.
	first := minStep
	for t := minStep + 1; t < s.horizon; t++ {
		if counts[t] > counts[first] {
			first = t
		}
	}
	if k+1 == len(s.order) {
		// The children are leaves with objective obj+2c+1. Only the
		// first can beat the incumbent: if it does it becomes the
		// incumbent, which no later sibling then beats.
		if leaf := obj + 2*counts[first] + 1; s.nodes < s.maxNodes && leaf > s.bestObj {
			s.steps[op] = first
			s.bestObj = leaf
			copy(s.best, s.steps)
		}
		s.count(s.horizon - minStep)
		return
	}
	// The child bound is non-decreasing in c and c never rises along the
	// candidates, so when the first child is pruned, all of them are.
	r, g := s.rem[k], s.maxCount[ty]
	rest := slack - r*(2*g+r)
	if c := counts[first]; obj+2*c+1+slackAfter(rest, r, g, c) <= s.bestObj {
		s.count(s.horizon - minStep)
		return
	}

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

	for i, t := range cands {
		c := counts[t]
		childObj := obj + 2*c + 1 // (c+1)² − c²
		childSlack := slackAfter(rest, r, g, c)
		if childObj+childSlack <= s.bestObj {
			s.count(len(cands) - i) // this child and every later sibling
			return
		}
		if s.nodes >= s.maxNodes {
			s.optimal = false
			return
		}
		s.nodes++
		counts[t] = c + 1
		s.maxCount[ty] = max(g, c+1)
		s.steps[op] = t
		s.dfs(k+1, childObj, childSlack)
		counts[t] = c
		s.maxCount[ty] = g
		if s.nodes >= s.maxNodes {
			s.optimal = false
			return
		}
	}
}

// slackAfter is the bound's running part after an op joins a step of
// degree c. rest is the running part without the op's type, r the
// type's ops still to place counting this one, and g its largest degree:
// one op leaves the type's term r(2g+r) and g may rise to c+1.
func slackAfter(rest, r, g, c int64) int64 {
	return rest + (r-1)*(2*max(g, c+1)+r-1)
}

// count adds m sibling nodes that are entered and left at once, either
// pruned or leaves that cannot win. It stops exactly where entering them
// one by one would: a node is counted only while nodes < maxNodes, and
// reaching the budget clears Optimal.
func (s *solver) count(m int) {
	if m >= s.maxNodes-s.nodes {
		s.nodes = s.maxNodes
		s.optimal = false
		return
	}
	s.nodes += m
}
