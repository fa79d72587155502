package fusion

import (
	"reflect"
	"testing"

	"rap/internal/preproc"
)

// TestPlanFusionDeterministic guards against map-order dependence:
// two back-to-back fusion plans over the same graphs must be deeply
// equal — same steps, same kernel order, same op grouping.
func TestPlanFusionDeterministic(t *testing.T) {
	p := preproc.MustStandardPlan(1, nil)
	shape := preproc.Shape{Samples: 4096, AvgListLen: 3}

	a, err := PlanFusion(p.Graphs, shape, Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFusion(p.Graphs, shape, Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fusion plans differ between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPlanFusionScaledDeterministic repeats the check with per-graph
// shapes, the path the RAP mapping uses.
func TestPlanFusionScaledDeterministic(t *testing.T) {
	p := preproc.SkewedPlan(6, nil)
	items := make([]ScaledGraph, len(p.Graphs))
	for i, g := range p.Graphs {
		items[i] = ScaledGraph{Graph: g, Shape: preproc.Shape{Samples: 1024 * (1 + i%3), AvgListLen: 3}}
	}
	a, err := PlanFusionScaled(items, Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFusionScaled(items, Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scaled fusion plans differ between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}
