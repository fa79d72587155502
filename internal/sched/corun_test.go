package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/fusion"
	"rap/internal/gbdt"
	"rap/internal/gpusim"
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

// samePieces reports whether two piece lists are equal bit for bit:
// kernel fields, carried prediction and part.
func samePieces(a, b []piece) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.k.Name != y.k.Name || x.k.Type != y.k.Type || x.k.FusedCount != y.k.FusedCount ||
			bits(x.k.Elements) != bits(y.k.Elements) || bits(x.k.ParamScale) != bits(y.k.ParamScale) ||
			bits(x.p) != bits(y.p) || x.part != y.part {
			return false
		}
	}
	return true
}

// checkCoRun checks corun against corunReference bit for bit (per-stage
// pieces, overflow, shard count and exposure, keeping pieces or not),
// CoRunExposed and CoRunSchedule against each other and against the
// reference formula (ScheduleCost over the placed stages plus the
// overflow's predictions, in order), and that every planned kernel's
// pieces carry its elements under the right names.
func checkCoRun(t *testing.T, fp *fusion.Plan, cm *costmodel.CostModel, opts Options) {
	t.Helper()
	for _, keep := range []bool{true, false} {
		got, err := corun(fp, cm, opts, keep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := corunReference(fp, cm, opts, keep)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.perStage) != len(want.perStage) {
			t.Fatalf("keep %v: %d stages, reference %d", keep, len(got.perStage), len(want.perStage))
		}
		for s := range want.perStage {
			if !samePieces(got.perStage[s], want.perStage[s]) {
				t.Fatalf("keep %v: stage %d pieces %+v, reference %+v", keep, s, got.perStage[s], want.perStage[s])
			}
		}
		if !samePieces(got.overflow, want.overflow) {
			t.Fatalf("keep %v: overflow %+v, reference %+v", keep, got.overflow, want.overflow)
		}
		if got.shards != want.shards || math.Float64bits(got.exposed) != math.Float64bits(want.exposed) {
			t.Fatalf("keep %v: %d shards, exposed %v; reference %d, %v", keep, got.shards, got.exposed, want.shards, want.exposed)
		}
	}
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
	all := allKernels(sch)
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
// shape, on 1–8 GPUs with sharding on or off, with the analytic
// predictor or a small GBDT one, and with one stage's leftover headroom
// optionally squeezed (squeezeCaps). The seed corpus runs in tier-1; a
// long run is opt-in:
// `go test -run '^$' -fuzz FuzzCoRunSchedule -fuzztime 60s ./internal/sched`.
func FuzzCoRunSchedule(f *testing.F) {
	f.Add(uint8(3), uint64(math.MaxUint64), int64(1), uint8(3), false, false, uint8(0))
	f.Add(uint8(3), uint64(math.MaxUint64), int64(2), uint8(3), true, false, uint8(0))
	f.Add(uint8(2), uint64(0x5555555555555555), int64(3), uint8(1), false, false, uint8(0))
	f.Add(uint8(0), uint64(0xff), int64(4), uint8(7), false, false, uint8(0))
	f.Add(uint8(1), uint64(0xf0f0), int64(5), uint8(0), false, false, uint8(0))
	f.Add(uint8(2), uint64(1), int64(6), uint8(5), true, false, uint8(0))
	f.Add(uint8(3), uint64(0), int64(7), uint8(2), false, false, uint8(0))
	// The GBDT predictor on the seeds above.
	f.Add(uint8(3), uint64(math.MaxUint64), int64(1), uint8(3), false, true, uint8(0))
	f.Add(uint8(2), uint64(0x5555555555555555), int64(3), uint8(1), false, true, uint8(0))
	f.Add(uint8(0), uint64(0xff), int64(4), uint8(7), false, true, uint8(0))
	// Long demand-limited shard runs: 25 to 62 equal shards of one
	// kernel in a row, under either predictor, at profiled headroom or
	// with scarce headroom in top_fwd (stage 4).
	f.Add(uint8(0), uint64(math.MaxUint64), int64(2), uint8(2), false, false, uint8(squeezeScarce<<4|4))
	f.Add(uint8(0), uint64(math.MaxUint64), int64(2), uint8(2), false, true, uint8(0))
	f.Add(uint8(0), uint64(math.MaxUint64), int64(6), uint8(6), false, false, uint8(0))
	f.Add(uint8(2), uint64(0x0f0f), int64(2), uint8(2), false, false, uint8(squeezeScarce<<4|4))
	f.Add(uint8(2), uint64(0xff), int64(1), uint8(1), false, true, uint8(0))
	// Demand bounds that differ by kernel type within a stage: in
	// bandwidth-limited emb_update (stage 10), a SigridHash kernel fits
	// more elements than the OneHot kernel placed before it.
	f.Add(uint8(3), uint64(288), int64(-198), uint8(4), false, false, uint8(squeezeScarce<<4|7))
	// A stage whose demand bound is 0 for every kernel type: no headroom
	// at all in top_bwd (stage 5), the largest stage, which Algorithm 1
	// selects first, or in emb_lookup (stage 0), the first stage.
	f.Add(uint8(3), uint64(math.MaxUint64), int64(10), uint8(3), false, false, uint8(squeezeZero<<4|5))
	f.Add(uint8(3), uint64(math.MaxUint64), int64(10), uint8(3), false, true, uint8(squeezeZero<<4|5))
	f.Add(uint8(2), uint64(0xff00ff), int64(11), uint8(7), false, false, uint8(squeezeZero<<4|0))

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
	// A few shallow trees: enough for predictions that are piecewise
	// constant in Elements and sometimes clamped to 0, as GBDT's are.
	trained, err := costmodel.TrainPredictor(costmodel.CollectTrainingData(800, 1), gbdt.Config{NumTrees: 6, MaxDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	models := map[int]*costmodel.CostModel{}
	f.Fuzz(func(t *testing.T, planIdx uint8, mask uint64, seed int64, gpus uint8, noShard, useGBDT bool, squeeze uint8) {
		pi := int(planIdx) % len(plans)
		n := 1 + int(gpus)%8
		cm, ok := models[n]
		if !ok {
			_, _, cm = testSetup(t, n, 4096)
			models[n] = cm
		}
		c := squeezeCaps(cm, squeeze)
		if useGBDT {
			c.Pred = trained
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
		checkCoRun(t, fp, &c, Options{DisableSharding: noShard})
	})
}

// Headroom squeezes for squeezeCaps: its argument's high four bits,
// modulo 3.
const (
	squeezeNone   = iota
	squeezeZero   // no headroom: the demand bound is 0 for every type
	squeezeScarce // 6 % SM and bandwidth: small, positive demand bounds
)

// squeezeCaps returns a copy of cm whose stage squeeze&15 (modulo the
// stage count) has its leftover headroom replaced per squeeze>>4
// (modulo 3); capacities are kept, so the stage is selected as before.
func squeezeCaps(cm *costmodel.CostModel, squeeze uint8) costmodel.CostModel {
	c := *cm
	var left gpusim.Demand
	switch (squeeze >> 4) % 3 {
	case squeezeNone:
		return c
	case squeezeScarce:
		left = gpusim.Demand{SM: 0.06, MemBW: 0.06}
	}
	c.Caps = append([]costmodel.StageCapacity(nil), cm.Caps...)
	c.Caps[int(squeeze&15)%len(c.Caps)].Leftover = left
	return c
}

// TestCoRunWidePlans runs checkCoRun on the `wide` plans, the inputs
// the mapping search scores; on three of their graphs with every stage
// at 25 µs, where a shard can outgrow its stage (by up to
// minShardLatency past packFraction of it), so the backlog the redo
// restarts from is not zero; and on the oversized NGram kernel whose
// remainder is split again.
func TestCoRunWidePlans(t *testing.T) {
	plans, cm := widePlans(t, 4096)
	for _, fp := range plans {
		checkCoRun(t, fp, cm, Options{})
		checkCoRun(t, fp, cm, Options{DisableSharding: true})
	}
	tight := *cm
	tight.Caps = append([]costmodel.StageCapacity(nil), cm.Caps...)
	for i := range tight.Caps {
		tight.Caps[i].Capacity = 25
	}
	checkCoRun(t, fusedPlanFor(t, preproc.MustStandardPlan(3, nil).Graphs[:3], 4096), &tight, Options{})
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

// corunReference is Algorithm 1 as it was before corun ran the stage
// prefix both passes share only once: the first pass over the selected
// stages, then, on overflow, a full redo over every stage from the
// planned queue. checkCoRun holds corun to it bit for bit.
func corunReference(plan *fusion.Plan, cm *costmodel.CostModel, opts Options, keep bool) (assignment, error) {
	if plan == nil || cm == nil {
		return assignment{}, fmt.Errorf("sched: nil plan or cost model")
	}
	if cm.Pred == nil {
		return assignment{}, fmt.Errorf("sched: cost model has no predictor")
	}
	numStages := len(cm.Caps)

	// Lines 2-5: total predicted preprocessing latency. The queue's
	// first half holds the planned kernels with their predictions; each
	// assignment pass works on a copy in the second half.
	n := 0
	for _, st := range plan.Steps {
		n += len(st.Kernels)
	}
	buf := make([]piece, 2*n)
	planned, queue := buf[:n], buf[n:]
	total := 0.0
	i := 0
	for _, st := range plan.Steps {
		for _, k := range st.Kernels {
			planned[i] = piece{k: k, p: cm.Pred.Predict(k)}
			total += planned[i].p
			i++
		}
	}

	// Lines 6-12: pick stages by capacity, largest first, until the
	// budget covers the workload.
	type capStage struct {
		idx int
		cap float64
	}
	sorted := make([]capStage, numStages)
	for i, c := range cm.Caps {
		sorted[i] = capStage{i, c.Capacity}
	}
	for i := 1; i < len(sorted); i++ { // insertion sort: stable, tiny n
		for j := i; j > 0 && sorted[j].cap > sorted[j-1].cap; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// A 25% margin absorbs the launch overhead added by sharding, which
	// the pre-fusion latency sum cannot see.
	selected := make([]bool, numStages)
	budget := 0.0
	for _, cs := range sorted {
		if budget >= total*1.25 {
			break
		}
		selected[cs.idx] = true
		budget += cs.cap
	}

	// Lines 13-29: greedy assignment in training-stage order; the kernel
	// queue order preserves fusion-step dependencies (the preprocessing
	// stream launches kernels in assignment order). A kernel is placed
	// whole only when both constraints hold: its predicted latency fits
	// the stage's remaining capacity AND its resource demand fits the
	// stage's leftover headroom. Otherwise it is sharded (lines 21-26):
	// demand-oversized kernels split into headroom-fitting pieces that
	// serialize within the stage, capacity-oversized ones spill forward.
	//
	// The exposed latency is summed as the pieces are placed, in
	// ScheduleCost's order: each stage's pieces from 0 in placement
	// order, added to a backlog that drains by the stage's capacity and
	// is clamped at 0; then the overflow, in order.
	var out assignment
	assign := func() (overflowed bool) {
		copy(queue, planned)
		out = assignment{}
		if keep {
			out.perStage = make([][]piece, numStages)
		}
		backlog := 0.0
		pos := 0
		for s := 0; s < numStages; s++ {
			sum := 0.0
			remaining := cm.Caps[s].Capacity * packFraction
			leftover := cm.Caps[s].Leftover
			for selected[s] && pos < len(queue) {
				k, p := queue[pos].k, queue[pos].p
				if p <= 0 {
					pos++
					continue
				}
				occCap := leftover.SM + DemandSlack
				if occCap > MaxCoRunOcc {
					occCap = MaxCoRunOcc
				}
				demandMax := k.MaxElementsForDemand(occCap, leftover.MemBW+DemandSlack)
				if demandMax <= 0 {
					break // this stage can never host this kernel type
				}
				frac := 1.0
				if k.Elements > demandMax {
					frac = demandMax / k.Elements
				}
				if capFrac := remaining / p; capFrac < frac {
					frac = capFrac
				}
				if frac >= 1 {
					if keep {
						out.perStage[s] = append(out.perStage[s], queue[pos])
					}
					sum += p
					remaining -= p
					pos++
					continue
				}
				if opts.DisableSharding || remaining < minShardLatency {
					break // stage full; spill to the next selected stage
				}
				k1, k2 := k.Shard(frac)
				p1 := cm.Pred.Predict(k1)
				if p1 > remaining && frac > 0.002 {
					// A demand-limited shard runs at leftover speed, so
					// its latency exceeds the naive frac·p estimate;
					// shrink it to the remaining capacity.
					k1, k2 = k.Shard(frac * remaining / p1)
					p1 = cm.Pred.Predict(k1)
				}
				if p1 < minShardLatency || p1 > remaining+minShardLatency {
					break // no useful piece fits this stage
				}
				if keep {
					out.perStage[s] = append(out.perStage[s], piece{k: k1, p: p1, part: shardPart})
				}
				sum += p1
				remaining -= p1
				out.shards++
				queue[pos] = piece{k: k2, p: cm.Pred.Predict(k2), part: restPart}
				// Keep filling this stage: more pieces may fit.
			}
			backlog += sum
			backlog -= cm.Caps[s].Capacity
			if backlog < 0 {
				backlog = 0
			}
		}
		out.exposed = backlog
		for _, pc := range queue[pos:] {
			out.exposed += pc.p
		}
		if keep {
			out.overflow = queue[pos:]
		}
		return pos < len(queue)
	}

	if assign() {
		// The selected stages were not enough (sharding overhead, demand
		// limits): redo the assignment over every stage, preserving launch
		// order, before declaring latency exposed.
		for i := range selected {
			selected[i] = true
		}
		assign()
	}
	return out, nil
}
