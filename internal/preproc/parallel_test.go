package preproc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rap/internal/data"
	"rap/internal/tensor"
)

// sameColumnOrder asserts that two batches hold columns of the same
// names in the same order.
func sameColumnOrder(t *testing.T, serial, parallel *tensor.Batch) {
	t.Helper()
	if len(serial.Dense) != len(parallel.Dense) || len(serial.Sparse) != len(parallel.Sparse) {
		t.Fatalf("column counts differ: %d/%d vs %d/%d",
			len(serial.Dense), len(serial.Sparse), len(parallel.Dense), len(parallel.Sparse))
	}
	for i, d := range serial.Dense {
		if name := parallel.Dense[i].Name; name != d.Name {
			t.Fatalf("dense column %d: serial %q, parallel %q", i, d.Name, name)
		}
	}
	for i, s := range serial.Sparse {
		if name := parallel.Sparse[i].Name; name != s.Name {
			t.Fatalf("sparse column %d: serial %q, parallel %q", i, s.Name, name)
		}
	}
}

// applyBoth runs a standard plan serially and in parallel on identical
// batches and asserts the outputs are bit-identical, column order
// included.
func applyBoth(t *testing.T, planIdx, samples, workers int) {
	t.Helper()
	applyPlanBoth(t, MustStandardPlan(planIdx, nil), samples, workers)
}

func applyPlanBoth(t *testing.T, p *Plan, samples, workers int) {
	t.Helper()
	// Two generators with one seed give two independent, identical batches.
	cfg := data.GenConfig{NumDense: p.NumDense, NumSparse: p.NumSparse, Seed: 42}
	serial := data.NewGenerator(cfg).NextBatch(samples)
	parallel := data.NewGenerator(cfg).NextBatch(samples)

	if err := p.Apply(serial); err != nil {
		t.Fatal(err)
	}
	if err := ParallelApply(p, parallel, workers); err != nil {
		t.Fatal(err)
	}
	sameColumnOrder(t, serial, parallel)
	for _, d := range serial.Dense {
		pd := parallel.DenseByName(d.Name)
		if pd == nil {
			t.Fatalf("parallel missing dense %q", d.Name)
		}
		for i := range d.Values {
			a, b := d.Values[i], pd.Values[i]
			if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
				t.Fatalf("dense %q[%d]: %f vs %f", d.Name, i, a, b)
			}
		}
	}
	for _, s := range serial.Sparse {
		ps := parallel.SparseByName(s.Name)
		if ps == nil {
			t.Fatalf("parallel missing sparse %q", s.Name)
		}
		if s.NNZ() != ps.NNZ() {
			t.Fatalf("sparse %q nnz %d vs %d", s.Name, s.NNZ(), ps.NNZ())
		}
		for i := range s.Values {
			if s.Values[i] != ps.Values[i] {
				t.Fatalf("sparse %q value[%d] differs", s.Name, i)
			}
		}
	}
}

func TestParallelApplyMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		applyBoth(t, 1, 64, workers)
	}
	applyBoth(t, 2, 32, 4)
}

// TestParallelApplyKeepsReplacedColumn: a graph may write an output
// over a raw input column, in place. A later graph's view still holds
// the raw column, and publishing that view must not put it back.
func TestParallelApplyKeepsReplacedColumn(t *testing.T) {
	p := &Plan{
		Name: "replace", NumDense: 3, NumSparse: 1, AvgListLen: 1,
		Graphs: []*Graph{
			{Name: "a", Ops: []Op{NewBoxCox("a0", "int_0", "int_1", 0.5)}},
			{Name: "b", Ops: []Op{NewCast("b0", "int_2", "b_out")}},
		},
	}
	applyPlanBoth(t, p, 16, 2)
}

// Run with -race to exercise the concurrency safety of shared inputs.
func TestParallelApplyRace(t *testing.T) {
	for i := 0; i < 3; i++ {
		applyBoth(t, 0, 48, 8)
	}
}

func TestParallelApplySingleWorkerFallback(t *testing.T) {
	applyBoth(t, 0, 16, 1)
}

func TestParallelApplyPropagatesError(t *testing.T) {
	p := MustStandardPlan(0, nil)
	gen := data.NewGenerator(data.GenConfig{NumDense: p.NumDense, NumSparse: p.NumSparse, Seed: 1})
	b := gen.NextBatch(8)
	// Break one graph: its input column will not exist.
	p.Graphs[0].Ops = []Op{NewCast("bad", "no_such_column", "out_x")}
	if err := ParallelApply(p, b, 4); err == nil {
		t.Fatal("missing input not reported")
	}
}

// TestParallelApplyConcurrentFailures breaks every graph but the first
// at its last op, so workers run whole graphs side by side and fail at
// about the same time. The returned error and the batch must be serial
// Apply's: the first failing graph's error, with the columns of every
// graph up to it.
func TestParallelApplyConcurrentFailures(t *testing.T) {
	for round := 0; round < 5; round++ {
		p := MustStandardPlan(1, nil)
		for i, g := range p.Graphs[1:] {
			g.Ops = append(g.Ops, NewCast(fmt.Sprintf("bad%d", i), "no_such_column", fmt.Sprintf("out_%d", i)))
		}
		cfg := data.GenConfig{NumDense: p.NumDense, NumSparse: p.NumSparse, Seed: 1}
		serial := data.NewGenerator(cfg).NextBatch(256)
		parallel := data.NewGenerator(cfg).NextBatch(256)
		want := p.Apply(serial)
		if want == nil || !strings.Contains(want.Error(), "no_such_column") {
			t.Fatalf("serial Apply error %v, want a missing-input graph error", want)
		}
		if err := ParallelApply(p, parallel, 8); err == nil || err.Error() != want.Error() {
			t.Fatalf("round %d: error %v, want serial Apply's %q", round, err, want)
		}
		sameColumnOrder(t, serial, parallel)
	}
}

func TestParallelApplyRejectsConflictingPlan(t *testing.T) {
	p := &Plan{
		Name: "dup", NumTables: 0, AvgListLen: 1,
		Graphs: []*Graph{
			{Name: "a", Ops: []Op{NewCast("a0", "int_0", "x")}},
			{Name: "b", Ops: []Op{NewCast("b0", "int_1", "x")}},
		},
	}
	gen := data.NewGenerator(data.GenConfig{NumDense: 2, NumSparse: 1, Seed: 1})
	if err := ParallelApply(p, gen.NextBatch(4), 2); err == nil {
		t.Fatal("conflicting producers accepted")
	}
}
