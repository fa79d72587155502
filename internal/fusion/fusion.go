// Package fusion implements RAP's resource-aware horizontal kernel
// fusion (§6): it formulates the fusion of the preprocessing operators
// mapped to one GPU as the §6.2 MILP, solves it with internal/milp, and
// lowers the solution into an ordered sequence of fused kernel specs.
// The resource-aware *sharding* of oversized fused kernels happens in
// the scheduler (internal/sched), using preproc.KernelSpec.Shard.
package fusion

import (
	"fmt"

	"rap/internal/milp"
	"rap/internal/preproc"
)

// Options tunes the fusion planner.
type Options struct {
	// Disable turns fusion off entirely (each op becomes its own
	// kernel) — the "RAP w/o fusion" ablation of Figure 10.
	Disable bool
	// MaxNodes forwards to the MILP solver (0 = default budget).
	MaxNodes int
	// Deprecated: ignored; the MILP solve is single-threaded.
	Workers int
	// GreedyOnly skips branch & bound and lowers with the level greedy
	// (LevelPlanner.Plan). Only the benchmark's traced replay of the
	// mapping search sets it; the search itself scores candidates
	// through LevelPlanner.ScorePlan.
	GreedyOnly bool
	// SolveCache, when non-nil, memoizes branch & bound solutions by
	// problem content so repeated instances (the replanning loop) skip
	// the search. Hits return exactly what a fresh solve would.
	SolveCache *SolveCache
}

// Step is one fused time step: at most one fused kernel per op type.
type Step struct {
	Index   int
	Kernels []preproc.KernelSpec
	// OpIDs lists, aligned with Kernels, the original operator ids fused
	// into each kernel.
	OpIDs [][]string
}

// Plan is the ordered fusion plan of one GPU's preprocessing workload.
type Plan struct {
	Steps []Step
	// Objective is the achieved MILP objective (Σ fusion-degree²).
	Objective int64
	// Optimal reports whether the MILP search completed.
	Optimal bool
	// Nodes is the number of branch & bound nodes the MILP solve
	// explored (on a solve-cache hit, the stored solve's count); 0 on
	// the greedy and disabled paths.
	Nodes int
	// NumOps / NumKernels summarize the compression.
	NumOps     int
	NumKernels int
}

// Kernels flattens the plan into the launch-ordered kernel sequence.
func (p *Plan) Kernels() []preproc.KernelSpec {
	var out []preproc.KernelSpec
	for _, s := range p.Steps {
		out = append(out, s.Kernels...)
	}
	return out
}

// MaxFusionDegree returns the largest number of ops fused into one
// kernel.
func (p *Plan) MaxFusionDegree() int {
	max := 0
	for _, s := range p.Steps {
		for _, ids := range s.OpIDs {
			if len(ids) > max {
				max = len(ids)
			}
		}
	}
	return max
}

// opRef ties a flattened MILP variable back to its graph op.
type opRef struct {
	graph *preproc.Graph
	idx   int
}

// BuildProblem flattens the ops of all graphs into one MILP instance:
// dependencies only exist within a graph, so ops of different graphs are
// freely fusible (more same-structure graphs on a GPU → more fusion
// opportunity, §3's joint-optimization observation).
func BuildProblem(graphs []*preproc.Graph) (milp.Problem, []opRef, error) {
	var refs []opRef
	var types []int
	var deps [][]int
	base := 0
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			return milp.Problem{}, nil, err
		}
		gdeps := g.Deps()
		for i, op := range g.Ops {
			refs = append(refs, opRef{graph: g, idx: i})
			types = append(types, int(op.Type()))
			ds := make([]int, len(gdeps[i]))
			for j, d := range gdeps[i] {
				ds[j] = base + d
			}
			deps = append(deps, ds)
		}
		base += len(g.Ops)
	}
	return milp.Problem{Types: types, Deps: deps}, refs, nil
}

// ScaledGraph pairs a graph with the data shape it processes on this
// GPU (mappings may give different graphs different sample counts, e.g.
// batch-parallel mapping splits samples across GPUs).
type ScaledGraph struct {
	Graph *preproc.Graph
	Shape preproc.Shape
}

// PlanFusion computes the horizontal-fusion plan for the graphs mapped
// to one GPU, all processing the same shape.
//
//rap:deterministic
func PlanFusion(graphs []*preproc.Graph, shape preproc.Shape, opts Options) (*Plan, error) {
	items := make([]ScaledGraph, len(graphs))
	for i, g := range graphs {
		items[i] = ScaledGraph{Graph: g, Shape: shape}
	}
	return PlanFusionScaled(items, opts)
}

// PlanFusionScaled is PlanFusion with per-graph shapes. When one graph
// appears in several items, all of its ops are costed at the last such
// item's shape.
//
//rap:deterministic
func PlanFusionScaled(items []ScaledGraph, opts Options) (*Plan, error) {
	graphs := make([]*preproc.Graph, len(items))
	for i, it := range items {
		if it.Graph == nil {
			return nil, fmt.Errorf("fusion: item %d has no graph", i)
		}
		graphs[i] = it.Graph
	}
	if opts.GreedyOnly && !opts.Disable {
		lp, err := NewLevelPlanner(graphs)
		if err != nil {
			return nil, err
		}
		return lp.Plan(items)
	}
	prob, refs, err := BuildProblem(graphs)
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return &Plan{Optimal: true}, nil
	}

	var steps []int
	optimal, nodes := false, 0
	if opts.Disable {
		// Every op at its own step, ordered topologically.
		order, err := milp.TopoOrder(prob.Deps)
		if err != nil {
			return nil, err
		}
		steps = make([]int, len(refs))
		for pos, op := range order {
			steps[op] = pos
		}
	} else {
		prob.MaxNodes = opts.MaxNodes
		if prob.MaxNodes == 0 {
			prob.MaxNodes = budgetFor(len(refs))
		}
		sol, err := opts.SolveCache.Get(solveKey(prob), func() (milp.Solution, error) {
			return milp.Solve(prob)
		})
		if err != nil {
			return nil, err
		}
		steps, optimal, nodes = sol.Step, sol.Optimal, sol.Nodes
	}
	if err := milp.Validate(milp.Problem{Types: prob.Types, Deps: prob.Deps}, steps); err != nil {
		return nil, fmt.Errorf("fusion: internal: solver produced invalid steps: %w", err)
	}

	// Lower (step, type) buckets into fused kernels.
	shapes := map[*preproc.Graph]preproc.Shape{}
	for _, it := range items {
		shapes[it.Graph] = it.Shape
	}
	types, pos := opTypes(graphs)
	numSteps := 0
	for _, s := range steps {
		if s+1 > numSteps {
			numSteps = s + 1
		}
	}
	flat := make([]int, len(refs))
	for i, r := range refs {
		flat[i] = steps[i]*len(types) + pos[r.graph.Ops[r.idx].Type()]
	}
	itemShapes := make([]preproc.Shape, len(items))
	buckets := make([][]int, len(items))
	for i, it := range items {
		n := len(it.Graph.Ops)
		itemShapes[i], buckets[i], flat = shapes[it.Graph], flat[:n:n], flat[n:]
	}
	plan := lower(items, itemShapes, buckets, types, numSteps)
	plan.Optimal, plan.Nodes = optimal, nodes
	return plan, nil
}

// budgetFor scales the default search budget down for large instances so
// planning time stays bounded (a time-limited MILP run, as with Gurobi).
func budgetFor(n int) int {
	switch {
	case n <= 30:
		return milp.DefaultMaxNodes
	case n <= 80:
		return 400_000
	case n <= 200:
		return 120_000
	default:
		return 40_000
	}
}
