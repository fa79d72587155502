package sched

import (
	"reflect"
	"testing"

	"rap/internal/preproc"
)

// TestCoRunScheduleDeterministic guards against map-order dependence:
// two back-to-back schedules of the same fusion plan must be deeply
// equal, stage by stage and kernel by kernel.
func TestCoRunScheduleDeterministic(t *testing.T) {
	_, _, cm := testSetup(t, 4, 4096)
	p := preproc.MustStandardPlan(1, nil)
	plan := fusedPlanFor(t, p.Graphs, 4096)

	a, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedules differ between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestCoRunScheduleShardingDeterministic repeats the check on a plan
// that forces sharding, the other code path that could depend on
// iteration order.
func TestCoRunScheduleShardingDeterministic(t *testing.T) {
	_, _, cm := testSetup(t, 2, 4096)
	g := &preproc.Graph{Name: "big", Ops: []preproc.Op{
		preproc.NewNGram("ng", []string{"cat_0", "cat_1", "cat_2", "cat_3"}, "out", 3, 1000),
	}}
	plan := fusedPlanFor(t, []*preproc.Graph{g}, 65536)

	a, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoRunSchedule(plan, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumShards == 0 {
		t.Fatal("plan did not shard; the test is not exercising the shard path")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded schedules differ between identical runs:\n%+v\nvs\n%+v", a, b)
	}
}
