package preproc

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"rap/internal/data"
)

// applyBoth runs a plan serially and in parallel on identical batches
// and asserts the outputs are bit-identical.
func applyBoth(t *testing.T, planIdx, samples, workers int) {
	t.Helper()
	p := MustStandardPlan(planIdx, nil)
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
	if len(serial.Dense) != len(parallel.Dense) || len(serial.Sparse) != len(parallel.Sparse) {
		t.Fatalf("column counts differ: %d/%d vs %d/%d",
			len(serial.Dense), len(serial.Sparse), len(parallel.Dense), len(parallel.Sparse))
	}
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

// TestParallelApplyConcurrentFailures breaks every graph at its last
// op, so workers run whole graphs side by side and then record their
// failures at about the same time; under -race this checks that the
// first-error slot is written under the merger's lock. One of the graph
// errors must come back.
func TestParallelApplyConcurrentFailures(t *testing.T) {
	for round := 0; round < 5; round++ {
		p := MustStandardPlan(1, nil)
		gen := data.NewGenerator(data.GenConfig{NumDense: p.NumDense, NumSparse: p.NumSparse, Seed: 1})
		b := gen.NextBatch(256)
		for i, g := range p.Graphs {
			g.Ops = append(g.Ops, NewCast(fmt.Sprintf("bad%d", i), "no_such_column", fmt.Sprintf("out_%d", i)))
		}
		err := ParallelApply(p, b, 8)
		if err == nil || !strings.Contains(err.Error(), "no_such_column") {
			t.Fatalf("round %d: error %v, want a missing-input graph error", round, err)
		}
	}
}

// TestMergerConcurrentFail: workers record failures with nothing else
// ordering them. Through ParallelApply the jobs channel and the view
// lock order most pairs of failures, so whether -race sees an unlocked
// fail there depends on scheduling (it missed it while other tests
// loaded the CPUs); here no pair is ordered, so it sees one every run.
func TestMergerConcurrentFail(t *testing.T) {
	m := &merger{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.fail(fmt.Errorf("worker %d", i))
		}(i)
	}
	wg.Wait()
	if m.err() == nil {
		t.Fatal("no failure recorded")
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
