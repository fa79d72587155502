package mapping

import (
	"reflect"
	"testing"

	"rap/internal/preproc"
)

// TestRAPSearchDeterministic guards against map-order dependence end
// to end: two back-to-back searches over the same skewed input must
// produce byte-identical placements. A reintroduced map-order
// dependence shows up here as a flaky diff.
func TestRAPSearchDeterministic(t *testing.T) {
	run := func() *Result {
		plan := preproc.SkewedPlan(8, nil)
		cfg := cfgFor(t, plan, 4)
		for i := range cfg.CapacityPerGPU {
			cfg.CapacityPerGPU[i] = 300
		}
		res, err := RAPSearch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Moves == 0 {
		t.Fatal("search made no moves; the test is not exercising the greedy loop")
	}
	// Graph pointers differ between runs (fresh plans), so compare by
	// name + shape + comm, which is what the simulator consumes.
	type key struct {
		name  string
		shape preproc.Shape
	}
	flatten := func(r *Result) ([][]key, []float64) {
		out := make([][]key, len(r.PerGPU))
		for g := range r.PerGPU {
			for _, asg := range r.PerGPU[g] {
				out[g] = append(out[g], key{asg.Graph.Name, asg.Shape})
			}
		}
		return out, r.CommBytes
	}
	ag, ac := flatten(a)
	bg, bc := flatten(b)
	if !reflect.DeepEqual(ag, bg) {
		t.Fatalf("placements differ between runs:\n%v\nvs\n%v", ag, bg)
	}
	if !reflect.DeepEqual(ac, bc) {
		t.Fatalf("comm bytes differ between runs: %v vs %v", ac, bc)
	}
	if a.Moves != b.Moves {
		t.Fatalf("move counts differ: %d vs %d", a.Moves, b.Moves)
	}
}

// TestDataLocalityDeterministic: the locality mapping is a pure
// function of the plan and placement.
func TestDataLocalityDeterministic(t *testing.T) {
	plan := preproc.SkewedPlan(6, nil)
	cfg := cfgFor(t, plan, 4)
	a, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DataLocality differs between identical runs")
	}
}
