package fusion

import (
	"testing"

	"rap/internal/preproc"
)

// BenchmarkPlanFusionStandard plans standard plan 1 at batch 4096 under
// the default node budget: problem construction, the MILP solve and the
// lowering into fused kernels.
func BenchmarkPlanFusionStandard(b *testing.B) {
	p := preproc.MustStandardPlan(1, nil)
	shape := p.Shape(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFusion(p.Graphs, shape, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
