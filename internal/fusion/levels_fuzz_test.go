package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rap/internal/milp"
	"rap/internal/preproc"
)

// Edge modes of FuzzLevelPlanner, as bits of its mode argument.
const (
	modeEmptyGraph  = 1 << iota // one graph has no ops
	modeDuplicate               // one graph is placed twice, at another shape
	modeExtraGraphs             // the planner also knows graphs no item uses
)

// FuzzLevelPlanner checks LevelPlanner.Plan on random graph sets against
// the route the greedy fusion took before the planner existed (flatten
// with BuildProblem, level with milp.GreedyLevels, group by a map and
// fold with name-joining fusion; see oraclePlan), and against properties
// every level plan must have. Graphs are random DAGs of 0–12 ops built
// from the preproc constructors over 1–11 op types, at random shapes.
// Tier-1 runs the seed corpus below; explore further with
//
//	go test -run '^$' -fuzz FuzzLevelPlanner -fuzztime 60s ./internal/fusion
func FuzzLevelPlanner(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		for mode := uint8(0); mode < 8; mode++ {
			f.Add(seed, uint8(seed), mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, types, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		nt := 1 + int(types)%11
		var kinds []preproc.OpType
		for _, i := range rng.Perm(11)[:nt] {
			kinds = append(kinds, preproc.OpType(i))
		}
		var graphs []*preproc.Graph
		for i, n := 0, rng.Intn(7); i < n; i++ {
			graphs = append(graphs, fuzzGraph(rng, i, 1+rng.Intn(12), kinds))
		}
		if mode&modeEmptyGraph != 0 {
			graphs = append(graphs, &preproc.Graph{ID: len(graphs), Name: "empty"})
		}
		rng.Shuffle(len(graphs), func(i, j int) { graphs[i], graphs[j] = graphs[j], graphs[i] })
		items := make([]ScaledGraph, len(graphs))
		for i, g := range graphs {
			items[i] = ScaledGraph{Graph: g, Shape: fuzzShape(rng)}
		}
		if mode&modeDuplicate != 0 && len(items) > 0 {
			dup := ScaledGraph{Graph: items[rng.Intn(len(items))].Graph, Shape: fuzzShape(rng)}
			at := rng.Intn(len(items) + 1)
			items = append(items[:at], append([]ScaledGraph{dup}, items[at:]...)...)
		}
		known := append([]*preproc.Graph(nil), graphs...)
		if mode&modeExtraGraphs != 0 {
			for i := 0; i < 2; i++ {
				known = append(known, fuzzGraph(rng, 100+i, 1+rng.Intn(12), kinds))
			}
		}

		lp, err := NewLevelPlanner(known)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lp.Plan(items)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oraclePlan(items)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePlan(got, want); err != nil {
			t.Fatalf("level planner differs from the oracle: %v", err)
		}
		again, err := lp.Plan(items)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePlan(again, got); err != nil {
			t.Fatalf("second Plan call differs: %v", err)
		}
		if err := checkLevelPlan(got, items); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzGraph draws a graph of n ops over the given types. Each op reads
// raw columns or, with a per-graph probability, earlier ops' outputs, so
// the DAG ranges from independent ops to chains and fan-ins. The op
// slice is then shuffled so index order differs from dependency order.
func fuzzGraph(rng *rand.Rand, id, n int, types []preproc.OpType) *preproc.Graph {
	g := &preproc.Graph{ID: id, Name: fmt.Sprintf("g%d", id)}
	raw := 1 + rng.Intn(3)
	var outs []string
	density := rng.Float64()
	in := func() string {
		if len(outs) > 0 && rng.Float64() < density {
			return outs[rng.Intn(len(outs))]
		}
		return fmt.Sprintf("g%d/raw%d", id, rng.Intn(raw))
	}
	for i := 0; i < n; i++ {
		opID, out := fmt.Sprintf("g%d/op%d", id, i), fmt.Sprintf("g%d/c%d", id, i)
		g.Ops = append(g.Ops, fuzzOp(rng, types[rng.Intn(len(types))], opID, in, out))
		outs = append(outs, out)
	}
	rng.Shuffle(len(g.Ops), func(i, j int) { g.Ops[i], g.Ops[j] = g.Ops[j], g.Ops[i] })
	return g
}

// fuzzOp builds one op of type ty with random parameters.
func fuzzOp(rng *rand.Rand, ty preproc.OpType, id string, in func() string, out string) preproc.Op {
	switch ty {
	case preproc.OpLogit:
		return preproc.NewLogit(id, in(), out, 1e-6)
	case preproc.OpBoxCox:
		return preproc.NewBoxCox(id, in(), out, rng.Float64())
	case preproc.OpOneHot:
		return preproc.NewOneHot(id, in(), out, 2+rng.Int63n(1<<20))
	case preproc.OpSigridHash:
		return preproc.NewSigridHash(id, in(), out, 2+rng.Int63n(1<<30))
	case preproc.OpFirstX:
		return preproc.NewFirstX(id, in(), out, 1+rng.Intn(20))
	case preproc.OpClamp:
		return preproc.NewClamp(id, in(), out, 0, 1+rng.Int63n(1<<30))
	case preproc.OpBucketize:
		borders := make([]float32, 1+rng.Intn(64))
		for i := range borders {
			borders[i] = rng.Float32() * 1000
		}
		return preproc.NewBucketize(id, in(), out, borders)
	case preproc.OpNGram:
		ins := make([]string, 1+rng.Intn(3))
		for i := range ins {
			ins[i] = in()
		}
		return preproc.NewNGram(id, ins, out, 2+rng.Intn(3), 2+rng.Int63n(1<<30))
	case preproc.OpMapID:
		return preproc.NewMapID(id, in(), out, map[int64]int64{1: 2})
	case preproc.OpFillNull:
		if rng.Intn(2) == 0 {
			return preproc.NewFillNullDense(id, in(), out, 0)
		}
		return preproc.NewFillNullSparse(id, in(), out, 0)
	default:
		return preproc.NewCast(id, in(), out)
	}
}

// fuzzShape draws a shape; list lengths ≤ 0 exercise the default of 1.
func fuzzShape(rng *rand.Rand) preproc.Shape {
	return preproc.Shape{Samples: 1 + rng.Intn(200_000), AvgListLen: rng.Float64()*9 - 1}
}

// oraclePlan is the greedy fusion route as it was before LevelPlanner:
// flatten every item's graph into one MILP problem, put every op at its
// ASAP level with milp.GreedyLevels, group ops by (step, type) in a map,
// and fold each group with name-joining fusion, then overwrite the name.
// As there, a graph placed twice costs all its ops at its last item's
// shape.
func oraclePlan(items []ScaledGraph) (*Plan, error) {
	graphs := make([]*preproc.Graph, len(items))
	shapes := map[*preproc.Graph]preproc.Shape{}
	for i, it := range items {
		graphs[i] = it.Graph
		shapes[it.Graph] = it.Shape
	}
	prob, refs, err := BuildProblem(graphs)
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return &Plan{Optimal: true}, nil
	}
	sol, err := milp.GreedyLevels(prob)
	if err != nil {
		return nil, err
	}
	if err := milp.Validate(prob, sol.Step); err != nil {
		return nil, err
	}
	type groupKey struct {
		step int
		ty   preproc.OpType
	}
	groups := map[groupKey][]int{}
	for i, r := range refs {
		k := groupKey{sol.Step[i], r.graph.Ops[r.idx].Type()}
		groups[k] = append(groups[k], i)
	}
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].step != keys[b].step {
			return keys[a].step < keys[b].step
		}
		return keys[a].ty < keys[b].ty
	})
	plan := &Plan{Objective: sol.Objective, NumOps: len(refs)}
	stepIdx := map[int]int{}
	for _, k := range keys {
		var fused preproc.KernelSpec
		var ids []string
		for j, m := range groups[k] {
			op := refs[m].graph.Ops[refs[m].idx]
			spec := op.Spec(shapes[refs[m].graph])
			if j == 0 {
				fused = spec
			} else {
				fused = joinFuse(fused, spec)
			}
			ids = append(ids, op.ID())
		}
		fused.Name = fmt.Sprintf("fused/%s@s%d x%d", k.ty, k.step, len(groups[k]))
		si, ok := stepIdx[k.step]
		if !ok {
			si = len(plan.Steps)
			stepIdx[k.step] = si
			plan.Steps = append(plan.Steps, Step{Index: k.step})
		}
		plan.Steps[si].Kernels = append(plan.Steps[si].Kernels, fused)
		plan.Steps[si].OpIDs = append(plan.Steps[si].OpIDs, ids)
		plan.NumKernels++
	}
	return plan, nil
}

// joinFuse is KernelSpec.MustFuse as it was when it joined the two
// names with "+".
func joinFuse(s, o preproc.KernelSpec) preproc.KernelSpec {
	sc1, sc2 := s.ParamScale, o.ParamScale
	if sc1 <= 0 {
		sc1 = 1
	}
	if sc2 <= 0 {
		sc2 = 1
	}
	total := s.Elements + o.Elements
	scale := 1.0
	if total > 0 {
		scale = (sc1*s.Elements + sc2*o.Elements) / total
	}
	count := func(k preproc.KernelSpec) int {
		if k.FusedCount <= 0 {
			return 1
		}
		return k.FusedCount
	}
	return preproc.KernelSpec{
		Name:       s.Name + "+" + o.Name,
		Type:       s.Type,
		Elements:   total,
		ParamScale: scale,
		FusedCount: count(s) + count(o),
	}
}

// samePlan compares two plans field by field, floats by their bits.
func samePlan(a, b *Plan) error {
	if a.Objective != b.Objective || a.Optimal != b.Optimal || a.Nodes != b.Nodes ||
		a.NumOps != b.NumOps || a.NumKernels != b.NumKernels || len(a.Steps) != len(b.Steps) {
		return fmt.Errorf("headers differ: %+v vs %+v",
			[]any{a.Objective, a.Optimal, a.Nodes, a.NumOps, a.NumKernels, len(a.Steps)},
			[]any{b.Objective, b.Optimal, b.Nodes, b.NumOps, b.NumKernels, len(b.Steps)})
	}
	if (a.Steps == nil) != (b.Steps == nil) {
		return fmt.Errorf("one plan has nil steps")
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Index != sb.Index || len(sa.Kernels) != len(sb.Kernels) || !reflect.DeepEqual(sa.OpIDs, sb.OpIDs) {
			return fmt.Errorf("step %d differs: %+v vs %+v", i, sa, sb)
		}
		for j, ka := range sa.Kernels {
			kb := sb.Kernels[j]
			if ka.Name != kb.Name || ka.Type != kb.Type || ka.FusedCount != kb.FusedCount ||
				math.Float64bits(ka.Elements) != math.Float64bits(kb.Elements) ||
				math.Float64bits(ka.ParamScale) != math.Float64bits(kb.ParamScale) {
				return fmt.Errorf("step %d kernel %d differs: %+v vs %+v", i, j, ka, kb)
			}
		}
	}
	return nil
}

// checkLevelPlan checks what every level plan must satisfy: each placed
// op appears exactly once per item that carries it, each op's step
// exceeds its dependencies', each kernel fuses ops of its own type, and
// the objective is the fusion objective of the plan's steps.
func checkLevelPlan(p *Plan, items []ScaledGraph) error {
	want := map[string]int{}
	opType := map[string]preproc.OpType{}
	for _, it := range items {
		for _, op := range it.Graph.Ops {
			want[op.ID()]++
			opType[op.ID()] = op.Type()
		}
	}
	got := map[string]int{}
	stepOf := map[string]int{}
	var types, steps []int
	for _, s := range p.Steps {
		for k, ids := range s.OpIDs {
			for _, id := range ids {
				got[id]++
				if prev, ok := stepOf[id]; ok && prev != s.Index {
					return fmt.Errorf("op %s at steps %d and %d", id, prev, s.Index)
				}
				stepOf[id] = s.Index
				if opType[id] != s.Kernels[k].Type {
					return fmt.Errorf("op %s (%v) fused into a %v kernel", id, opType[id], s.Kernels[k].Type)
				}
				types = append(types, int(s.Kernels[k].Type))
				steps = append(steps, s.Index)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("op multiset %v, items carry %v", got, want)
	}
	for _, it := range items {
		for i, ds := range it.Graph.Deps() {
			for _, d := range ds {
				id, dep := it.Graph.Ops[i].ID(), it.Graph.Ops[d].ID()
				if stepOf[id] <= stepOf[dep] {
					return fmt.Errorf("op %s at step %d does not follow its dependency %s at step %d",
						id, stepOf[id], dep, stepOf[dep])
				}
			}
		}
	}
	if obj := milp.Objective(types, steps); p.Objective != obj {
		return fmt.Errorf("objective %d, steps evaluate to %d", p.Objective, obj)
	}
	return nil
}
