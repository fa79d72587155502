package milp

import "fmt"

// solveReference is the branch & bound without Solve's running bound
// and bulk sibling counting: every node, pruned or leaf, is entered one
// at a time and recomputes the clustering bound over all types. It is
// the oracle FuzzSolveMatchesReference holds Solve to, field for field.
// It reads a negative Horizon or MaxNodes as the default where Solve
// rejects them, so callers pass only non-negative ones.
func solveReference(p Problem) (Solution, error) {
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

	s := &refSolver{
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

type refSolver struct {
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
func (s *refSolver) bound(k int, obj int64) int64 {
	b := obj
	nt := len(s.maxCount)
	for ty, r := range s.remaining[k*nt : (k+1)*nt] {
		g := s.maxCount[ty]
		b += r * (2*g + r)
	}
	return b
}

func (s *refSolver) dfs(k int, obj int64) {
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
