package preproc

import (
	"testing"

	"rap/internal/data"
)

// BenchmarkApplyPlan1 measures serial execution of plan 1 on a 4096-
// sample batch (real data transforms).
func BenchmarkApplyPlan1(b *testing.B) {
	p := MustStandardPlan(1, nil)
	gen := data.NewGenerator(data.GenConfig{Seed: 1})
	raw := gen.NextBatch(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := raw.ShallowCopy()
		if err := p.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelApplyPlan1 is the same workload on the worker-pool
// executor.
func BenchmarkParallelApplyPlan1(b *testing.B) {
	p := MustStandardPlan(1, nil)
	gen := data.NewGenerator(data.GenConfig{Seed: 1})
	raw := gen.NextBatch(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := raw.ShallowCopy()
		if err := ParallelApply(p, batch, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpec measures the footprint model (hot path of the planner).
func BenchmarkSpec(b *testing.B) {
	op := NewSigridHash("sh", "in", "out", 1<<20)
	shape := Shape{Samples: 4096, AvgListLen: 3}
	for i := 0; i < b.N; i++ {
		_ = op.Spec(shape).SoloLatency()
	}
}
