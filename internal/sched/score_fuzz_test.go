package sched

import (
	"math"
	"math/rand"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/fusion"
	"rap/internal/gbdt"
	"rap/internal/preproc"
)

// FuzzScorePlan holds LevelPlanner.ScorePlan, the plan the mapping
// search scores every candidate with, to LevelPlanner.Plan on random
// subsets of a standard plan's graphs, some placed more than once, at
// random shapes with fractional list lengths: the same steps, objective
// and op and kernel counts; each kernel's Type, Elements, ParamScale
// and FusedCount bit for bit; no op IDs or names; and CoRunExposed on
// the scoring plan bit for bit CoRunSchedule's PredictedExposed on the
// full one, under the analytic or a small GBDT predictor. Tier-1 runs
// the seed corpus below; explore further with
//
//	go test -run '^$' -fuzz FuzzScorePlan -fuzztime 60s ./internal/sched
func FuzzScorePlan(f *testing.F) {
	f.Add(uint8(3), uint64(math.MaxUint64), int64(1), uint8(3), uint8(0), false, false)
	f.Add(uint8(3), uint64(math.MaxUint64), int64(2), uint8(3), uint8(2), false, true)
	f.Add(uint8(2), uint64(0x5555555555555555), int64(3), uint8(1), uint8(3), false, false)
	f.Add(uint8(2), uint64(0xff00ff), int64(4), uint8(7), uint8(1), true, true)
	f.Add(uint8(1), uint64(0xf0f0), int64(5), uint8(0), uint8(5), false, true)
	f.Add(uint8(0), uint64(0xff), int64(6), uint8(5), uint8(4), true, false)
	f.Add(uint8(0), uint64(1), int64(7), uint8(2), uint8(7), false, false)
	f.Add(uint8(3), uint64(0), int64(8), uint8(3), uint8(0), false, false)

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
	trained, err := costmodel.TrainPredictor(costmodel.CollectTrainingData(800, 1), gbdt.Config{NumTrees: 6, MaxDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	models := map[int]*costmodel.CostModel{}
	f.Fuzz(func(t *testing.T, planIdx uint8, mask uint64, seed int64, gpus, repeats uint8, noShard, useGBDT bool) {
		pi := int(planIdx) % len(plans)
		n := 1 + int(gpus)%8
		cm, ok := models[n]
		if !ok {
			_, _, cm = testSetup(t, n, 4096)
			models[n] = cm
		}
		c := *cm
		if useGBDT {
			c.Pred = trained
		}
		rng := rand.New(rand.NewSource(seed))
		shape := func() preproc.Shape {
			return preproc.Shape{Samples: 1 + rng.Intn(65536), AvgListLen: 8 * rng.Float64()}
		}
		var items []fusion.ScaledGraph
		for i, g := range plans[pi].Graphs {
			if mask>>(i%64)&1 != 0 {
				items = append(items, fusion.ScaledGraph{Graph: g, Shape: shape()})
			}
		}
		// Place up to 7 graphs a second time, at another shape and position.
		for r := 0; r < int(repeats)%8 && len(items) > 0; r++ {
			dup := fusion.ScaledGraph{Graph: items[rng.Intn(len(items))].Graph, Shape: shape()}
			at := rng.Intn(len(items) + 1)
			items = append(items[:at], append([]fusion.ScaledGraph{dup}, items[at:]...)...)
		}

		full, err := levels[pi].Plan(items)
		if err != nil {
			t.Fatal(err)
		}
		score, err := levels[pi].ScorePlan(items)
		if err != nil {
			t.Fatal(err)
		}
		if score.Objective != full.Objective || score.Optimal != full.Optimal || score.Nodes != full.Nodes ||
			score.NumOps != full.NumOps || score.NumKernels != full.NumKernels || len(score.Steps) != len(full.Steps) {
			t.Fatalf("headers differ: score %+v vs full %+v",
				[]any{score.Objective, score.Optimal, score.Nodes, score.NumOps, score.NumKernels, len(score.Steps)},
				[]any{full.Objective, full.Optimal, full.Nodes, full.NumOps, full.NumKernels, len(full.Steps)})
		}
		for i, ss := range score.Steps {
			fs := full.Steps[i]
			if ss.Index != fs.Index || len(ss.Kernels) != len(fs.Kernels) || ss.OpIDs != nil {
				t.Fatalf("step %d: score index %d, %d kernels, op IDs %v; full index %d, %d kernels",
					i, ss.Index, len(ss.Kernels), ss.OpIDs, fs.Index, len(fs.Kernels))
			}
			for j, sk := range ss.Kernels {
				fk := fs.Kernels[j]
				if sk.Name != "" || sk.Type != fk.Type || sk.FusedCount != fk.FusedCount ||
					math.Float64bits(sk.Elements) != math.Float64bits(fk.Elements) ||
					math.Float64bits(sk.ParamScale) != math.Float64bits(fk.ParamScale) {
					t.Fatalf("step %d kernel %d: score %+v vs full %+v", i, j, sk, fk)
				}
			}
		}

		opts := Options{DisableSharding: noShard}
		sch, err := CoRunSchedule(full, &c, opts)
		if err != nil {
			t.Fatal(err)
		}
		exposed, err := CoRunExposed(score, &c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(exposed) != math.Float64bits(sch.PredictedExposed) {
			t.Fatalf("CoRunExposed on the scoring plan = %v, CoRunSchedule on the full plan = %v", exposed, sch.PredictedExposed)
		}
	})
}
