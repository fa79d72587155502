package sched

import (
	"math"
	"math/rand"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/fusion"
	"rap/internal/preproc"
)

// widePlans returns the fused plans of Terabyte plan 3's graphs dealt
// round-robin over 4 GPUs at 4096 samples per GPU (the `wide`
// benchmark's plan, GPU count and batch), lowered with the level greedy
// the mapping search scores candidates with, and the 4-GPU cost model.
func widePlans(t testing.TB, samples int) ([]*fusion.Plan, *costmodel.CostModel) {
	t.Helper()
	const n = 4
	_, _, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(3, nil)
	lp, err := fusion.NewLevelPlanner(p.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	shape := preproc.Shape{Samples: samples, AvgListLen: p.AvgListLen}
	var plans []*fusion.Plan
	for _, gs := range splitGraphs(p, n) {
		items := make([]fusion.ScaledGraph, len(gs))
		for i, g := range gs {
			items[i] = fusion.ScaledGraph{Graph: g, Shape: shape}
		}
		fp, err := lp.Plan(items)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, fp)
	}
	return plans, cm
}

// checkCoRun checks CoRunExposed and CoRunSchedule against each other
// and against the reference formula (ScheduleCost over the placed
// stages plus the overflow's predictions, in order), and checks that
// every planned kernel's pieces carry its elements under the right
// names.
func checkCoRun(t *testing.T, fp *fusion.Plan, cm *costmodel.CostModel, opts Options) {
	t.Helper()
	sch, err := CoRunSchedule(fp, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	exposed, err := CoRunExposed(fp, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(exposed) != math.Float64bits(sch.PredictedExposed) {
		t.Fatalf("CoRunExposed %v, CoRunSchedule %v", exposed, sch.PredictedExposed)
	}
	ref, err := cm.ScheduleCost(sch.PerStage)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sch.Overflow {
		ref += cm.Pred.Predict(k)
	}
	if math.Float64bits(ref) != math.Float64bits(sch.PredictedExposed) {
		t.Fatalf("PredictedExposed %v, reference %v", sch.PredictedExposed, ref)
	}

	// Walk the launch order against the plan's kernels: a planned
	// kernel is one whole piece, or one or more `~shard` pieces closed
	// by one `~rest` piece.
	all := sch.AllKernels()
	pos, shards := 0, 0
	for _, k := range fp.Kernels() {
		if cm.Pred.Predict(k) <= 0 {
			continue // Algorithm 1 drops kernels predicted to take no time
		}
		var elems float64
		for first := true; ; first = false {
			if pos == len(all) {
				t.Fatalf("kernel %q: schedule ends early", k.Name)
			}
			got := all[pos]
			pos++
			elems += got.Elements
			if got.Name == k.Name && first {
				break
			}
			if got.Name == k.Name+"~shard" {
				shards++
				continue
			}
			if got.Name == k.Name+"~rest" && !first {
				break
			}
			t.Fatalf("piece %q where kernel %q (first piece %v) was due", got.Name, k.Name, first)
		}
		if math.Abs(elems-k.Elements) > 1e-9*k.Elements {
			t.Fatalf("kernel %q: pieces carry %v elements, want %v", k.Name, elems, k.Elements)
		}
	}
	if pos != len(all) {
		t.Fatalf("%d pieces left after the plan's kernels", len(all)-pos)
	}
	if shards != sch.NumShards {
		t.Fatalf("%d `~shard` pieces, NumShards %d", shards, sch.NumShards)
	}
}

// FuzzCoRunSchedule checks both Algorithm 1 entry points (checkCoRun)
// on random subsets of a standard plan's graphs, each at a random
// shape, on 1–8 GPUs with sharding on or off. The seed corpus runs in
// tier-1; a long run is opt-in:
// `go test -run '^$' -fuzz FuzzCoRunSchedule -fuzztime 60s ./internal/sched`.
func FuzzCoRunSchedule(f *testing.F) {
	f.Add(uint8(3), uint64(math.MaxUint64), int64(1), uint8(3), false)
	f.Add(uint8(3), uint64(math.MaxUint64), int64(2), uint8(3), true)
	f.Add(uint8(2), uint64(0x5555555555555555), int64(3), uint8(1), false)
	f.Add(uint8(0), uint64(0xff), int64(4), uint8(7), false)
	f.Add(uint8(1), uint64(0xf0f0), int64(5), uint8(0), false)
	f.Add(uint8(2), uint64(1), int64(6), uint8(5), true)
	f.Add(uint8(3), uint64(0), int64(7), uint8(2), false)

	var plans [4]*preproc.Plan
	var levels [4]*fusion.LevelPlanner
	for i := range plans {
		plans[i] = preproc.MustStandardPlan(i, nil)
		lp, err := fusion.NewLevelPlanner(plans[i].Graphs)
		if err != nil {
			f.Fatal(err)
		}
		levels[i] = lp
	}
	models := map[int]*costmodel.CostModel{}
	f.Fuzz(func(t *testing.T, planIdx uint8, mask uint64, seed int64, gpus uint8, noShard bool) {
		pi := int(planIdx) % len(plans)
		n := 1 + int(gpus)%8
		cm, ok := models[n]
		if !ok {
			_, _, cm = testSetup(t, n, 4096)
			models[n] = cm
		}
		rng := rand.New(rand.NewSource(seed))
		var items []fusion.ScaledGraph
		for i, g := range plans[pi].Graphs {
			if mask>>(i%64)&1 == 0 {
				continue
			}
			shape := preproc.Shape{Samples: 1 + rng.Intn(65536), AvgListLen: 8 * rng.Float64()}
			items = append(items, fusion.ScaledGraph{Graph: g, Shape: shape})
		}
		fp, err := levels[pi].Plan(items)
		if err != nil {
			t.Fatal(err)
		}
		checkCoRun(t, fp, cm, Options{DisableSharding: noShard})
	})
}

// TestCoRunWidePlans runs checkCoRun on the `wide` plans, the inputs
// the mapping search scores, and on the oversized NGram kernel whose
// remainder is split again.
func TestCoRunWidePlans(t *testing.T) {
	plans, cm := widePlans(t, 4096)
	for _, fp := range plans {
		checkCoRun(t, fp, cm, Options{})
		checkCoRun(t, fp, cm, Options{DisableSharding: true})
	}
	_, _, cm2 := testSetup(t, 2, 4096)
	g := &preproc.Graph{Name: "big", Ops: []preproc.Op{
		preproc.NewNGram("ng", []string{"cat_0", "cat_1", "cat_2", "cat_3"}, "out", 3, 1000),
	}}
	checkCoRun(t, fusedPlanFor(t, []*preproc.Graph{g}, 65536), cm2, Options{})
}

// TestCoRunExposedAllocs pins CoRunExposed's allocations on the `wide`
// plans: the piece queue, the capacity order and the stage selection,
// however many shards the plan needs. An 8x larger batch makes more
// shards and must not add an allocation.
func TestCoRunExposedAllocs(t *testing.T) {
	const want = 3
	prevShards := 0
	for _, samples := range []int{4096, 32768} {
		plans, cm := widePlans(t, samples)
		shards := 0
		for _, fp := range plans {
			sch, err := CoRunSchedule(fp, cm, Options{})
			if err != nil {
				t.Fatal(err)
			}
			shards += sch.NumShards
			got := testing.AllocsPerRun(20, func() {
				if _, err := CoRunExposed(fp, cm, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if got != want {
				t.Fatalf("%d samples: CoRunExposed allocates %v times, want %d", samples, got, want)
			}
		}
		if shards <= prevShards {
			t.Fatalf("%d samples: %d shards, no more than the smaller batch's %d", samples, shards, prevShards)
		}
		prevShards = shards
	}
}
