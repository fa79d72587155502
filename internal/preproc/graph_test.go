package preproc

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"rap/internal/data"
	"rap/internal/tensor"
)

// opsPerFeature returns NumOps / (NumDense + NumSparse).
func opsPerFeature(p *Plan) float64 {
	f := p.NumDense + p.NumSparse
	if f == 0 {
		return 0
	}
	return float64(p.NumOps()) / float64(f)
}

func chainGraph() *Graph {
	return &Graph{
		Name: "chain",
		Ops: []Op{
			NewFillNullSparse("op0", "cat_0", "a", 0),
			NewSigridHash("op1", "a", "b", 100),
			NewFirstX("op2", "b", "c", 3),
		},
		Outputs: []GraphOutput{{Table: 0, Col: "c"}},
	}
}

func TestGraphDepsAndTopo(t *testing.T) {
	g := chainGraph()
	deps := g.Deps()
	if len(deps[0]) != 0 || len(deps[1]) != 1 || deps[1][0] != 0 || deps[2][0] != 1 {
		t.Fatalf("deps = %v", deps)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for p, i := range order {
		pos[i] = p
	}
	if pos[0] > pos[1] || pos[1] > pos[2] {
		t.Fatalf("topo order wrong: %v", order)
	}
}

func TestGraphLevels(t *testing.T) {
	// Diamond: op0 -> (op1, op2) -> op3(ngram of both).
	g := &Graph{
		Name: "diamond",
		Ops: []Op{
			NewFillNullSparse("op0", "cat_0", "a", 0),
			NewSigridHash("op1", "a", "b", 100),
			NewClamp("op2", "a", "c", 0, 50),
			NewNGram("op3", []string{"b", "c"}, "d", 2, 100),
		},
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestGraphValidateErrors(t *testing.T) {
	dup := &Graph{Name: "dup", Ops: []Op{
		NewCast("same", "x", "y"),
		NewCast("same", "y", "z"),
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate id accepted")
	}
	twoProducers := &Graph{Name: "two", Ops: []Op{
		NewCast("a", "x", "y"),
		NewLogit("b", "x", "y", 0),
	}}
	if err := twoProducers.Validate(); err == nil {
		t.Fatal("two producers accepted")
	}
	cycle := &Graph{Name: "cyc", Ops: []Op{
		NewCast("a", "y", "x"),
		NewCast("b", "x", "y"),
	}}
	if err := cycle.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

// TestGraphValidateCacheInvalidated checks that a validated graph
// edited through the documented path (ops appended, then
// InvalidateDeps) is checked again: a duplicate op id or a new cycle is
// rejected.
func TestGraphValidateCacheInvalidated(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
		want string
	}{
		{"duplicate id", []Op{NewCast("op1", "c", "d")}, "duplicate op id"},
		{"cycle", []Op{NewCast("op3", "y", "x"), NewCast("op4", "x", "y")}, "dependency cycle"},
	} {
		g := chainGraph()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		g.Ops = append(g.Ops, tc.ops...)
		g.InvalidateDeps()
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate after the edit = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestGraphValidateRepeatAllocs pins a repeat Validate of a validated
// graph at zero allocations.
func TestGraphValidateRepeatAllocs(t *testing.T) {
	g := MustStandardPlan(3, nil).Graphs[0]
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("repeat Validate allocates %v times, want 0", got)
	}
}

// TestGraphValidateConcurrentFirstCalls runs the first Validate and
// Deps calls on one fresh graph from several goroutines, as BuildPlan's
// per-GPU lowerings do with shared dense-output graphs; -race checks
// the caches.
func TestGraphValidateConcurrentFirstCalls(t *testing.T) {
	g := MustStandardPlan(3, nil).Graphs[0]
	want := len(g.Deps())
	g.InvalidateDeps()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = g.Validate()
			if got := len(g.Deps()); got != want && errs[i] == nil {
				errs[i] = fmt.Errorf("Deps has %d entries, want %d", got, want)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGraphApply(t *testing.T) {
	g := chainGraph()
	b := tensor.NewBatch(2)
	if err := b.AddSparse(tensor.SparseFromLists("cat_0", [][]int64{{1, 2, 3, 4, 5}, {}})); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(b); err != nil {
		t.Fatal(err)
	}
	c := b.SparseByName("c")
	if c == nil {
		t.Fatal("chain output missing")
	}
	if len(c.Row(0)) != 3 {
		t.Fatalf("FirstX(3) output len %d", len(c.Row(0)))
	}
	if len(c.Row(1)) != 1 {
		t.Fatal("FillNull should have given the empty row one id")
	}
	for _, v := range c.Values {
		if v < 0 || v >= 100 {
			t.Fatalf("unhashed id %d escaped", v)
		}
	}
}

func TestGraphApplyPropagatesError(t *testing.T) {
	g := &Graph{Name: "bad", Ops: []Op{NewCast("c", "missing", "y")}}
	if err := g.Apply(tensor.NewBatch(1)); err == nil {
		t.Fatal("missing input not reported")
	}
}

func TestGraphWorkAndSpecs(t *testing.T) {
	g := chainGraph()
	shape := Shape{Samples: 4096, AvgListLen: 3}
	specs := g.Specs(shape)
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	total := 0.0
	for _, s := range specs {
		total += s.SoloLatency()
	}
	if math.Abs(total-g.TotalWork(shape)) > 1e-9 {
		t.Fatal("TotalWork != sum of solo latencies")
	}
}

func TestStandardPlanTable3(t *testing.T) {
	want := []struct {
		nDense, nSparse, totalOps int
		opsPerFeature             float64
	}{
		{13, 26, 104, 2.67},
		{13, 26, 104, 2.67},
		{26, 52, 384, 4.92},
		{52, 104, 1548, 9.92},
	}
	for i, w := range want {
		p, err := StandardPlan(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if p.NumDense != w.nDense || p.NumSparse != w.nSparse {
			t.Fatalf("plan %d features: %d/%d, want %d/%d", i, p.NumDense, p.NumSparse, w.nDense, w.nSparse)
		}
		if got := p.NumOps(); got != w.totalOps {
			t.Fatalf("plan %d total ops = %d, want %d (Table 3)", i, got, w.totalOps)
		}
		if math.Abs(opsPerFeature(p)-w.opsPerFeature) > 0.05 {
			t.Fatalf("plan %d ops/feature = %.2f, want %.2f", i, opsPerFeature(p), w.opsPerFeature)
		}
	}
	if _, err := StandardPlan(4, nil); err == nil {
		t.Fatal("plan 4 accepted")
	}
}

func TestStandardPlanTableWiring(t *testing.T) {
	p := MustStandardPlan(2, func(int) int64 { return 1000 })
	cols := p.TableCols()
	if len(cols) != p.NumTables {
		t.Fatalf("only %d of %d tables fed", len(cols), p.NumTables)
	}
	if p.NumTables <= p.NumSparse {
		t.Fatal("plan 2 should generate extra tables")
	}
	if len(p.DenseCols()) != p.NumDense {
		t.Fatalf("dense outputs = %d, want %d", len(p.DenseCols()), p.NumDense)
	}
}

func TestStandardPlanApplyEndToEnd(t *testing.T) {
	for idx := 0; idx < 4; idx++ {
		p := MustStandardPlan(idx, nil)
		g := data.NewGenerator(data.GenConfig{
			NumDense: p.NumDense, NumSparse: p.NumSparse, Seed: int64(idx),
		})
		b := g.NextBatch(64)
		if err := p.Apply(b); err != nil {
			t.Fatalf("plan %d apply: %v", idx, err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("plan %d output invalid: %v", idx, err)
		}
		// Every table input column must exist, be sparse and in range.
		for table, col := range p.TableCols() {
			c := b.SparseByName(col)
			if c == nil {
				t.Fatalf("plan %d: table %d column %q missing", idx, table, col)
			}
			for _, v := range c.Values {
				if v < 0 || v >= 100_000 {
					t.Fatalf("plan %d: table %d id %d outside hash size", idx, table, v)
				}
			}
		}
		// Dense outputs exist and are NaN-free.
		for _, col := range p.DenseCols() {
			d := b.DenseByName(col)
			if d == nil {
				t.Fatalf("plan %d: dense column %q missing", idx, col)
			}
			if d.HasNaN() {
				t.Fatalf("plan %d: dense column %q still has NaN after FillNull", idx, col)
			}
		}
	}
}

func TestPlanFusionConflictExists(t *testing.T) {
	// Plans 2/3 must contain both FirstX→SigridHash and
	// SigridHash→FirstX orders (the §6.1 conflict).
	p := MustStandardPlan(2, nil)
	fxThenSh, shThenFx := false, false
	for _, g := range p.Graphs {
		producerType := map[string]OpType{}
		for _, op := range g.Ops {
			producerType[op.Output()] = op.Type()
		}
		for _, op := range g.Ops {
			for _, in := range op.Inputs() {
				pt, ok := producerType[in]
				if !ok {
					continue
				}
				if pt == OpFirstX && op.Type() == OpSigridHash {
					fxThenSh = true
				}
				if pt == OpSigridHash && op.Type() == OpFirstX {
					shThenFx = true
				}
			}
		}
	}
	if !fxThenSh || !shThenFx {
		t.Fatalf("conflict orders missing: fx→sh=%v sh→fx=%v", fxThenSh, shThenFx)
	}
}

func TestSkewedPlan(t *testing.T) {
	p := SkewedPlan(6, nil)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumTables != 26+6 {
		t.Fatalf("skewed tables = %d, want 32", p.NumTables)
	}
	shape := p.Shape(4096)
	heavy := p.Graphs[p.NumDense].TotalWork(shape)    // sparse feature 0
	light := p.Graphs[p.NumDense+10].TotalWork(shape) // sparse feature 10
	if heavy < 2*light {
		t.Fatalf("skew too weak: heavy=%.1f light=%.1f", heavy, light)
	}
	// Skewed plan still executes.
	g := data.NewGenerator(data.GenConfig{Seed: 1})
	b := g.NextBatch(32)
	if err := p.Apply(b); err != nil {
		t.Fatal(err)
	}
}

func TestPlanValidateCatchesBadTables(t *testing.T) {
	p := MustStandardPlan(0, nil)
	p.Graphs[p.NumDense].Outputs[0].Table = 999
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range table accepted")
	}
	p = MustStandardPlan(0, nil)
	p.Graphs[p.NumDense+1].Outputs[0].Table = p.Graphs[p.NumDense].Outputs[0].Table
	if err := p.Validate(); err == nil {
		t.Fatal("doubly-fed table accepted")
	}
}

// planWork sums Graph.TotalWork over the plan's graphs for a batch of
// the given size.
func planWork(p *Plan, samples int) float64 {
	total := 0.0
	for _, g := range p.Graphs {
		total += g.TotalWork(p.Shape(samples))
	}
	return total
}

func TestPlanTotalWorkScalesWithBatch(t *testing.T) {
	// Work is occupancy-limited: below GPU saturation a bigger batch
	// costs the same wall time, so compare across the saturation point.
	p := MustStandardPlan(1, nil)
	if planWork(p, 16*4096) <= planWork(p, 4096) {
		t.Fatal("work not monotone across saturation")
	}
	if p.SaturatedWork(8192) <= p.SaturatedWork(4096) {
		t.Fatal("saturated work not monotone in batch size")
	}
	// Plan 3 is much heavier than plan 1 at the same batch size.
	p3 := MustStandardPlan(3, nil)
	if planWork(p3, 4096) < 3*planWork(p, 4096) {
		t.Fatal("plan 3 should dwarf plan 1")
	}
}
