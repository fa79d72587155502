package fusion

import (
	"fmt"
	"sort"
	"strconv"

	"rap/internal/preproc"
)

// LevelPlanner lowers graph sets with the level greedy: every op runs at
// its graph's ASAP level, and the same-type ops sharing a level fuse
// into one kernel. Ops of one type on one level are incomparable (a
// dependency path strictly raises the level), so the plan is always
// feasible. The planner validates its graphs and derives their levels
// once, so scoring one candidate assignment (the mapping search calls
// Plan for every candidate) only folds kernel specs. Plan does not
// mutate the planner.
type LevelPlanner struct {
	index     map[*preproc.Graph]int
	buckets   [][]int          // [graph][op]: level*len(types) + type position
	types     []preproc.OpType // distinct op types, ascending
	numLevels int
}

// NewLevelPlanner validates each distinct graph once, takes its ASAP
// levels, and checks that every op's level exceeds its dependencies'.
func NewLevelPlanner(graphs []*preproc.Graph) (*LevelPlanner, error) {
	lp := &LevelPlanner{index: make(map[*preproc.Graph]int, len(graphs))}
	var distinct []*preproc.Graph
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("fusion: graph %d is nil", i)
		}
		if _, ok := lp.index[g]; !ok {
			lp.index[g] = len(distinct)
			distinct = append(distinct, g)
		}
	}
	types, pos := opTypes(distinct)
	lp.types = types
	lp.buckets = make([][]int, len(distinct))
	for gi, g := range distinct {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		levels, err := g.Levels()
		if err != nil {
			return nil, err
		}
		for i, ds := range g.Deps() {
			for _, d := range ds {
				if levels[d] >= levels[i] {
					return nil, fmt.Errorf("fusion: internal: graph %q op %d (level %d) does not follow its dependency %d (level %d)",
						g.Name, i, levels[i], d, levels[d])
				}
			}
		}
		b := make([]int, len(g.Ops))
		for i, op := range g.Ops {
			b[i] = levels[i]*len(types) + pos[op.Type()]
			if levels[i]+1 > lp.numLevels {
				lp.numLevels = levels[i] + 1
			}
		}
		lp.buckets[gi] = b
	}
	return lp, nil
}

// Plan lowers one GPU's items, each graph at its ASAP levels. Every
// graph must be one the planner was built with. Optimal is false and
// Nodes 0 unless there are no ops at all.
//
//rap:deterministic
func (lp *LevelPlanner) Plan(items []ScaledGraph) (*Plan, error) {
	shapes, buckets, err := lp.resolve(items)
	if err != nil {
		return nil, err
	}
	return lower(items, shapes, buckets, lp.types, lp.numLevels), nil
}

// ScorePlan is Plan without what scoring a candidate mapping never
// reads: its steps carry no OpIDs and its kernels no names. Every other
// field, and every kernel's Type, Elements, ParamScale and FusedCount,
// is bit for bit Plan's, so Algorithm 1 predicts the same latencies on
// either plan.
//
//rap:deterministic
func (lp *LevelPlanner) ScorePlan(items []ScaledGraph) (*Plan, error) {
	shapes, buckets, err := lp.resolve(items)
	if err != nil {
		return nil, err
	}
	return fold(items, shapes, buckets, len(lp.types), lp.numLevels).plan, nil
}

// resolve returns, for each item, the shape its ops are costed at and
// its graph's op buckets.
func (lp *LevelPlanner) resolve(items []ScaledGraph) ([]preproc.Shape, [][]int, error) {
	byGraph := make([]preproc.Shape, len(lp.buckets))
	for _, it := range items {
		gi, ok := lp.index[it.Graph]
		if !ok {
			if it.Graph == nil {
				return nil, nil, fmt.Errorf("fusion: item has no graph")
			}
			return nil, nil, fmt.Errorf("fusion: graph %q is not one the level planner was built with", it.Graph.Name)
		}
		byGraph[gi] = it.Shape
	}
	shapes := make([]preproc.Shape, len(items))
	buckets := make([][]int, len(items))
	for i, it := range items {
		gi := lp.index[it.Graph]
		shapes[i], buckets[i] = byGraph[gi], lp.buckets[gi]
	}
	return shapes, buckets, nil
}

// opTypes returns the distinct op types of the graphs in ascending order
// and each type's position in that order.
func opTypes(graphs []*preproc.Graph) ([]preproc.OpType, map[preproc.OpType]int) {
	pos := map[preproc.OpType]int{}
	var types []preproc.OpType
	for _, g := range graphs {
		for _, op := range g.Ops {
			if _, ok := pos[op.Type()]; !ok {
				pos[op.Type()] = 0
				types = append(types, op.Type())
			}
		}
	}
	sort.Slice(types, func(a, b int) bool { return types[a] < types[b] })
	for i, t := range types {
		pos[t] = i
	}
	return types, pos
}

// folded is the kernel fold of one lowering: plan's steps hold the
// fused kernels, without op IDs or names; count[b] is bucket b's op
// count, and kernelOf[b] its kernel's index in kernels when count[b] > 0.
type folded struct {
	plan     *Plan
	kernels  []preproc.KernelSpec // every step's kernels, in launch order
	count    []int
	kernelOf []int
}

// fold groups ops into fused kernels by (step, type) bucket and emits
// them in (step, type) order. buckets[i][j] is step*nt + type position
// of items[i]'s op j, and shapes[i] the shape items[i]'s ops are costed
// at. Each bucket folds its specs in item order, then op order, so
// float sums round the same way on every path.
func fold(items []ScaledGraph, shapes []preproc.Shape, buckets [][]int, nt, numSteps int) folded {
	nb := numSteps * nt
	counts := make([]int, 3*nb)
	// folds[b] counts the specs folded into bucket b's kernel so far.
	count, kernelOf, folds := counts[:nb:nb], counts[nb:2*nb:2*nb], counts[2*nb:]
	numOps := 0
	for _, bs := range buckets {
		for _, b := range bs {
			count[b]++
		}
		numOps += len(bs)
	}
	if numOps == 0 {
		return folded{plan: &Plan{Optimal: true}}
	}

	plan := &Plan{NumOps: numOps}
	numStepsUsed, lastStep := 0, -1
	for b, c := range count {
		if c == 0 {
			continue
		}
		kernelOf[b] = plan.NumKernels
		plan.NumKernels++
		plan.Objective += int64(c) * int64(c)
		if s := b / nt; s != lastStep {
			numStepsUsed++
			lastStep = s
		}
	}
	kernels := make([]preproc.KernelSpec, plan.NumKernels)
	for i, it := range items {
		for j, op := range it.Graph.Ops {
			b := buckets[i][j]
			k := kernelOf[b]
			// Both callers pass a twice-placed graph's last piece's shape for
			// every piece: a known fidelity gap that moves the simulated
			// metrics when fixed, pinned by
			// TestPlanFusionDuplicateGraphUsesLastShape.
			spec := op.Spec(shapes[i])
			if folds[b] == 0 {
				kernels[k] = spec
				kernels[k].Name = ""
			} else {
				kernels[k] = kernels[k].MustFuse(spec)
			}
			folds[b]++
		}
	}

	plan.Steps = make([]Step, 0, numStepsUsed)
	first := 0 // the current step's first kernel
	for b, c := range count {
		if c == 0 {
			continue
		}
		k, step := kernelOf[b], b/nt
		if n := len(plan.Steps); n == 0 || plan.Steps[n-1].Index != step {
			plan.Steps = append(plan.Steps, Step{Index: step})
			first = k
		}
		plan.Steps[len(plan.Steps)-1].Kernels = kernels[first : k+1 : k+1]
	}
	return folded{plan: plan, kernels: kernels, count: count, kernelOf: kernelOf}
}

// lower is fold plus what a plan the pipeline runs needs: each step's
// op IDs and each kernel's name.
func lower(items []ScaledGraph, shapes []preproc.Shape, buckets [][]int, types []preproc.OpType, numSteps int) *Plan {
	nt := len(types)
	f := fold(items, shapes, buckets, nt, numSteps)
	plan := f.plan
	if plan.NumOps == 0 {
		return plan
	}
	// Kernel k owns the slots of ids that opIDs[k] grows into, so
	// collecting op ids allocates nothing more.
	ids := make([]string, plan.NumOps)
	opIDs := make([][]string, plan.NumKernels)
	off := 0
	for b, c := range f.count {
		if c == 0 {
			continue
		}
		k := f.kernelOf[b]
		opIDs[k] = ids[off : off : off+c]
		off += c
		f.kernels[k].Name = "fused/" + types[b%nt].String() + "@s" + strconv.Itoa(b/nt) + " x" + strconv.Itoa(c)
	}
	for i, it := range items {
		for j, op := range it.Graph.Ops {
			k := f.kernelOf[buckets[i][j]]
			opIDs[k] = append(opIDs[k], op.ID())
		}
	}
	first := 0
	for i := range plan.Steps {
		s := &plan.Steps[i]
		end := first + len(s.Kernels)
		s.OpIDs = opIDs[first:end:end]
		first = end
	}
	return plan
}
