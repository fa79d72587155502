package preproc

import (
	"fmt"

	"rap/internal/data"
)

// HashSizer returns the id cardinality of embedding table t. Plans use
// it to parameterize SigridHash/NGram/OneHot targets consistently with
// the model's embedding tables.
type HashSizer func(table int) int64

func defaultHash(int) int64 { return 100_000 }

// StandardPlan builds preprocessing Plan n (0–3) of Table 3:
//
//	Plan 0: Kaggle,   13 dense + 26  sparse, 104  ops
//	Plan 1: Terabyte, 13 dense + 26  sparse, 104  ops
//	Plan 2: Terabyte, 26 dense + 52  sparse, 384  ops
//	Plan 3: Terabyte, 52 dense + 104 sparse, 1548 ops
//
// Plans 0/1 follow TorchArrow's default Criteo plan (FillNull on every
// feature plus normalization); Plans 2/3 add feature generation (NGram,
// OneHot and Bucketize branches) and deeper chains, mirroring how the
// paper scales preprocessing density. hashFor may be nil.
func StandardPlan(n int, hashFor HashSizer) (*Plan, error) {
	if hashFor == nil {
		hashFor = defaultHash
	}
	switch n {
	case 0:
		return lightPlan("plan0", hashFor), nil
	case 1:
		return lightPlan("plan1", hashFor), nil
	case 2:
		return densePlan("plan2", 26, 52, 8, 8, 4, 5, false, hashFor), nil
	case 3:
		return densePlan("plan3", 52, 104, 16, 16, 30, 10, true, hashFor), nil
	default:
		return nil, fmt.Errorf("preproc: no standard plan %d (want 0-3)", n)
	}
}

// MustStandardPlan is StandardPlan for known-good indices. Kept as a
// fixture for fusion's, mapping's and sched's tests.
func MustStandardPlan(n int, hashFor HashSizer) *Plan {
	p, err := StandardPlan(n, hashFor)
	if err != nil {
		panic(err)
	}
	return p
}

// lightPlan is the default TorchArrow-style Criteo plan: FillNull→Logit
// on dense features, FillNull→SigridHash→FirstX on sparse features.
func lightPlan(name string, hashFor HashSizer) *Plan {
	p := &Plan{Name: name, NumDense: 13, NumSparse: 26, NumTables: 26, AvgListLen: 3}
	for d := 0; d < p.NumDense; d++ {
		in := data.DenseName(d)
		g := &Graph{ID: len(p.Graphs), Name: fmt.Sprintf("dense_%d", d), DenseOutput: in + ".lg"}
		g.Ops = []Op{
			NewFillNullDense(opID(name, g.Name, 0), in, in+".fn", 0),
			NewLogit(opID(name, g.Name, 1), in+".fn", in+".lg", 0),
		}
		p.Graphs = append(p.Graphs, g)
	}
	for s := 0; s < p.NumSparse; s++ {
		in := data.SparseName(s)
		g := &Graph{ID: len(p.Graphs), Name: fmt.Sprintf("sparse_%d", s)}
		g.Ops = []Op{
			NewFillNullSparse(opID(name, g.Name, 0), in, in+".fn", 0),
			NewSigridHash(opID(name, g.Name, 1), in+".fn", in+".sh", hashFor(s)),
			NewFirstX(opID(name, g.Name, 2), in+".sh", in+".fx", 20),
		}
		g.Outputs = []GraphOutput{{Table: s, Col: in + ".fx"}}
		p.Graphs = append(p.Graphs, g)
	}
	return p
}

// densePlan builds the heavier plans. Per dense feature: a 4-op chain
// (deep=false) or 8-op chain (deep=true), with OneHot branches on the
// first nOneHot features and Bucketize branches on the next nBucketize.
// Per sparse feature: a chain of sparseChain ops with alternating
// operator orders (creating the fusion conflicts of §6.1). nNGram NGram
// graphs each merge two neighbouring sparse-feature chains and (deep
// only) append a MapID tail.
func densePlan(name string, nDense, nSparse, nOneHot, nBucketize, nNGram, sparseChain int, deep bool, hashFor HashSizer) *Plan {
	p := &Plan{Name: name, NumDense: nDense, NumSparse: nSparse, AvgListLen: 3}
	nextTable := nSparse

	for d := 0; d < nDense; d++ {
		in := data.DenseName(d)
		g := &Graph{ID: len(p.Graphs), Name: fmt.Sprintf("dense_%d", d)}
		k := 0
		add := func(op Op) string {
			g.Ops = append(g.Ops, op)
			k++
			return op.Output()
		}
		cur := add(NewFillNullDense(opID(name, g.Name, k), in, in+".fn", 0))
		cur = add(NewCast(opID(name, g.Name, k), cur, in+".c1"))
		branchPoint := cur
		cur = add(NewBoxCox(opID(name, g.Name, k), cur, in+".bc1", 0.5))
		cur = add(NewLogit(opID(name, g.Name, k), cur, in+".lg1", 0))
		if deep {
			cur = add(NewFillNullDense(opID(name, g.Name, k), cur, in+".fn2", 0))
			cur = add(NewCast(opID(name, g.Name, k), cur, in+".c2"))
			cur = add(NewBoxCox(opID(name, g.Name, k), cur, in+".bc2", 0.25))
			cur = add(NewLogit(opID(name, g.Name, k), cur, in+".lg2", 0))
		}
		g.DenseOutput = cur
		switch {
		case d < nOneHot:
			out := add(NewOneHot(opID(name, g.Name, k), branchPoint, in+".oh", hashFor(nextTable)))
			g.Outputs = append(g.Outputs, GraphOutput{Table: nextTable, Col: out})
			nextTable++
		case d < nOneHot+nBucketize:
			out := add(NewBucketize(opID(name, g.Name, k), branchPoint, in+".bk",
				[]float32{0, 1, 2, 5, 10, 20, 50, 100, 200, 500}))
			g.Outputs = append(g.Outputs, GraphOutput{Table: nextTable, Col: out})
			nextTable++
		}
		p.Graphs = append(p.Graphs, g)
	}

	// Sparse chains; features 2i and 2i+1 for i < nNGram are merged into
	// one NGram graph.
	chainOps := func(g *Graph, feat int, table int) string {
		in := data.SparseName(feat)
		k := len(g.Ops)
		add := func(op Op) string {
			g.Ops = append(g.Ops, op)
			k++
			return op.Output()
		}
		cur := add(NewFillNullSparse(opID(name, g.Name, k), in, in+".fn", 0))
		// Alternate operator order between even and odd features so that
		// FirstX→SigridHash and SigridHash→FirstX both occur, the §6.1
		// horizontal-fusion conflict.
		if feat%2 == 0 {
			cur = add(NewClamp(opID(name, g.Name, k), cur, in+".cp1", 0, 1<<40))
			cur = add(NewSigridHash(opID(name, g.Name, k), cur, in+".sh1", hashFor(table)))
			cur = add(NewFirstX(opID(name, g.Name, k), cur, in+".fx1", 20))
		} else {
			cur = add(NewFirstX(opID(name, g.Name, k), cur, in+".fx1", 20))
			cur = add(NewSigridHash(opID(name, g.Name, k), cur, in+".sh1", hashFor(table)))
			cur = add(NewClamp(opID(name, g.Name, k), cur, in+".cp1", 0, 1<<40))
		}
		cur = add(NewMapID(opID(name, g.Name, k), cur, in+".mp1", map[int64]int64{0: 1}))
		if deep {
			cur = add(NewClamp(opID(name, g.Name, k), cur, in+".cp2", 0, 1<<40))
			cur = add(NewSigridHash(opID(name, g.Name, k), cur, in+".sh2", hashFor(table)))
			cur = add(NewFirstX(opID(name, g.Name, k), cur, in+".fx2", 10))
			cur = add(NewMapID(opID(name, g.Name, k), cur, in+".mp2", map[int64]int64{1: 2}))
			cur = add(NewClamp(opID(name, g.Name, k), cur, in+".cp3", 0, 1<<40))
		}
		return cur
	}
	_ = sparseChain // documented length; asserted via plan totals in tests

	for s := 0; s < nSparse; {
		if s/2 < nNGram && s+1 < nSparse {
			a, b := s, s+1
			g := &Graph{ID: len(p.Graphs), Name: fmt.Sprintf("ngram_%d", s/2)}
			outA := chainOps(g, a, a)
			outB := chainOps(g, b, b)
			k := len(g.Ops)
			ng := NewNGram(opID(name, g.Name, k), []string{outA, outB},
				fmt.Sprintf("%s.ng", data.SparseName(a)), 3, hashFor(nextTable))
			g.Ops = append(g.Ops, ng)
			final := ng.Output()
			if deep {
				k = len(g.Ops)
				mp := NewMapID(opID(name, g.Name, k), final, final+".mp", map[int64]int64{2: 3})
				g.Ops = append(g.Ops, mp)
				final = mp.Output()
			}
			g.Outputs = []GraphOutput{
				{Table: a, Col: data.SparseName(a) + lastSparseSuffix(deep)},
				{Table: b, Col: data.SparseName(b) + lastSparseSuffix(deep)},
				{Table: nextTable, Col: final},
			}
			nextTable++
			p.Graphs = append(p.Graphs, g)
			s += 2
			continue
		}
		g := &Graph{ID: len(p.Graphs), Name: fmt.Sprintf("sparse_%d", s)}
		out := chainOps(g, s, s)
		g.Outputs = []GraphOutput{{Table: s, Col: out}}
		p.Graphs = append(p.Graphs, g)
		s++
	}
	p.NumTables = nextTable
	return p
}

// lastSparseSuffix is the suffix of the final column of a sparse chain.
func lastSparseSuffix(deep bool) string {
	if deep {
		return ".cp3"
	}
	return ".mp1"
}

// SkewedPlan builds the Figure 12 workload: Plan-1 preprocessing where
// the first heavyFeatures sparse features carry much heavier graphs
// (extra NGram + hash + truncation work), so data-locality mapping
// overloads whichever GPUs host those tables.
func SkewedPlan(heavyFeatures int, hashFor HashSizer) *Plan {
	if hashFor == nil {
		hashFor = defaultHash
	}
	p := lightPlan("skewed", hashFor)
	p.Name = "skewed"
	nextTable := p.NumTables
	if heavyFeatures > p.NumSparse {
		heavyFeatures = p.NumSparse
	}
	for s := 0; s < heavyFeatures; s++ {
		in := data.SparseName(s)
		g := p.Graphs[p.NumDense+s]
		k := len(g.Ops)
		base := g.Outputs[0].Col
		ng := NewNGram(opID(p.Name, g.Name, k), []string{base}, in+".ng", 3, hashFor(nextTable))
		g.Ops = append(g.Ops, ng)
		k++
		sh := NewSigridHash(opID(p.Name, g.Name, k), ng.Output(), in+".ngsh", hashFor(nextTable))
		g.Ops = append(g.Ops, sh)
		k++
		fx := NewFirstX(opID(p.Name, g.Name, k), sh.Output(), in+".ngfx", 30)
		g.Ops = append(g.Ops, fx)
		g.Outputs = append(g.Outputs, GraphOutput{Table: nextTable, Col: fx.Output()})
		g.InvalidateDeps()
		nextTable++
	}
	p.NumTables = nextTable
	return p
}

func opID(plan, graph string, k int) string {
	return fmt.Sprintf("%s/%s/op%d", plan, graph, k)
}
