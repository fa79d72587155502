package costmodel

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rap/internal/dlrm"
	"rap/internal/gbdt"
	"rap/internal/gpusim"
	"rap/internal/preproc"
)

func tinyDataset(t *testing.T) Dataset {
	t.Helper()
	return CollectTrainingData(1500, 1)
}

func TestCollectTrainingData(t *testing.T) {
	ds := tinyDataset(t)
	if ds.Size() != 1500 {
		t.Fatalf("size = %d", ds.Size())
	}
	// All five Table 5 categories present.
	for _, cat := range []string{"1D Ops", "FirstX", "Ngram", "Onehot", "Bucketize"} {
		if len(ds.ByCategory[cat]) == 0 {
			t.Fatalf("category %q empty", cat)
		}
	}
	for cat, samples := range ds.ByCategory {
		for _, s := range samples {
			if s.Latency <= 0 {
				t.Fatalf("%s: non-positive latency", cat)
			}
			if s.Spec.Elements <= 0 {
				t.Fatalf("%s: empty spec", cat)
			}
		}
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := tinyDataset(t)
	train, eval := ds.Split(0.9, 7)
	if train.Size()+eval.Size() != ds.Size() {
		t.Fatal("split lost samples")
	}
	frac := float64(train.Size()) / float64(ds.Size())
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("train fraction = %f", frac)
	}
}

// TestDatasetSplitDeterministic: the same seed yields the same split.
// Go re-randomizes map order on every range, so repeated in-process
// splits catch a category walk that follows map order.
func TestDatasetSplitDeterministic(t *testing.T) {
	ds := tinyDataset(t)
	train, eval := ds.Split(0.9, 7)
	// Iterating a five-entry map repeats the previous order about half
	// the time, so only many splits catch an order leak reliably.
	for i := 0; i < 64; i++ {
		tr, ev := ds.Split(0.9, 7)
		if !reflect.DeepEqual(tr, train) || !reflect.DeepEqual(ev, eval) {
			t.Fatalf("split %d differs from the first with the same seed", i+1)
		}
	}
}

func TestPredictorAccuracyTable5(t *testing.T) {
	// The Table 5 protocol: ~11K kernels, 9:1 split, accuracy@10%.
	ds := CollectTrainingData(4000, 3)
	train, eval := ds.Split(0.9, 3)
	pred, err := TrainPredictor(train, gbdt.Config{NumTrees: 120, MaxDepth: 6, LearningRate: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	acc := pred.Accuracy(eval, 0.10)
	for cat, a := range acc {
		if a < 0.80 {
			t.Fatalf("category %q accuracy %.3f < 0.80", cat, a)
		}
	}
	if len(pred.models) != 5 {
		t.Fatalf("%d categories trained, want 5", len(pred.models))
	}
}

func TestPredictorMonotoneInSize(t *testing.T) {
	ds := CollectTrainingData(3000, 5)
	pred, err := TrainPredictor(ds, gbdt.Config{NumTrees: 80, MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	small := preproc.KernelSpec{Name: "s", Type: preproc.OpSigridHash, Elements: 2000}
	big := preproc.KernelSpec{Name: "b", Type: preproc.OpSigridHash, Elements: 200000}
	if pred.Predict(small) >= pred.Predict(big) {
		t.Fatalf("predictor not monotone: %f vs %f", pred.Predict(small), pred.Predict(big))
	}
}

func TestPredictorFallback(t *testing.T) {
	p := AnalyticPredictor()
	spec := preproc.KernelSpec{Name: "x", Type: preproc.OpLogit, Elements: 5000}
	if got := p.Predict(spec); math.Abs(got-spec.SoloLatency()) > 1e-9 {
		t.Fatalf("fallback = %f, want %f", got, spec.SoloLatency())
	}
}

func TestTrainPredictorEmpty(t *testing.T) {
	if _, err := TrainPredictor(Dataset{ByCategory: map[string][]Sample{}}, gbdt.Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func testConfig() (dlrm.Config, dlrm.Placement) {
	sizes := make([]int64, 26)
	for i := range sizes {
		sizes[i] = 1 << 20
	}
	cfg := dlrm.TerabyteConfig(sizes, 4096)
	return cfg, dlrm.PlaceTables(sizes, 4)
}

func TestEstimateCapacities(t *testing.T) {
	cfg, pl := testConfig()
	cluster := gpusim.ClusterConfig{NumGPUs: 4}
	caps, err := EstimateCapacities(cfg, pl, 0, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != dlrm.NumStages {
		t.Fatalf("stage count = %d", len(caps))
	}
	byName := map[string]StageCapacity{}
	for _, c := range caps {
		byName[c.Name] = c
		if c.Capacity < 0 || c.Duration <= 0 {
			t.Fatalf("stage %s: cap %f dur %f", c.Name, c.Capacity, c.Duration)
		}
		// Capacity never exceeds ~1.5× duration (probe must be hidden).
		if c.Capacity > c.Duration*1.6 {
			t.Fatalf("stage %s capacity %f > duration %f", c.Name, c.Capacity, c.Duration)
		}
	}
	// Memory-bound embedding stages leave more SM headroom than top MLP.
	if byName["emb_lookup"].Leftover.SM <= byName["top_fwd"].Leftover.SM {
		t.Fatal("embedding stage should leave more SM headroom")
	}
	// Comm stages have full capacity.
	if byName["a2a_fwd"].Capacity != byName["a2a_fwd"].Duration {
		t.Fatal("comm stage capacity should equal duration")
	}
	// Long compute stages provide large capacity (probe hidden under
	// them while headroom exists).
	if byName["top_fwd"].Capacity <= 0 {
		t.Fatal("top_fwd should still hide some preprocessing")
	}
	if total := TotalCapacity(caps); total <= 0 {
		t.Fatalf("total capacity %f", total)
	}
}

func TestEstimateCapacitiesErrors(t *testing.T) {
	cfg, pl := testConfig()
	if _, err := EstimateCapacities(cfg, pl, 99, gpusim.ClusterConfig{NumGPUs: 4}); err == nil {
		t.Fatal("bad gpu accepted")
	}
	bad := cfg
	bad.BatchSize = 0
	if _, err := EstimateCapacities(bad, pl, 0, gpusim.ClusterConfig{NumGPUs: 4}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestCostModel(t *testing.T) {
	cfg, pl := testConfig()
	caps, err := EstimateCapacities(cfg, pl, 0, gpusim.ClusterConfig{NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCostModel(AnalyticPredictor(), caps)
	if err != nil {
		t.Fatal(err)
	}
	small := []preproc.KernelSpec{{Name: "k", Type: preproc.OpLogit, Elements: 1000}}
	if cm.ExposedLatency(small) >= 0 {
		t.Fatal("tiny workload should have slack")
	}
	if cm.ExposedLatencyClamped(small) != 0 {
		t.Fatal("clamped slack should be 0")
	}
	// A giant kernel exceeds total capacity.
	huge := []preproc.KernelSpec{{Name: "h", Type: preproc.OpNGram, Elements: 5e8}}
	if cm.ExposedLatency(huge) <= 0 {
		t.Fatal("huge workload should be exposed")
	}
	if cm.ExposedLatencyClamped(huge) != cm.ExposedLatency(huge) {
		t.Fatal("clamp changed positive value")
	}
	if cm.PredictTotal(huge) <= cm.PredictTotal(small) {
		t.Fatal("predict total ordering wrong")
	}
}

func TestCostModelScheduleCost(t *testing.T) {
	caps := []StageCapacity{
		{Index: 0, Name: "s0", Duration: 100, Capacity: 100},
		{Index: 1, Name: "s1", Duration: 50, Capacity: 50},
	}
	cm, err := NewCostModel(AnalyticPredictor(), caps)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(work float64) preproc.KernelSpec {
		// Elements chosen so SoloLatency ≈ work.
		return preproc.KernelSpec{Name: "k", Type: preproc.OpFillNull, Elements: (work - 6.5) * 1500 / 0.8}
	}
	// Fits: 80 µs against 150 µs capacity.
	cost, err := cm.ScheduleCost([][]preproc.KernelSpec{{mk(40)}, {mk(40)}})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("fitting schedule cost = %f", cost)
	}
	// Over-stuffed stage 1: backlog spills past the end.
	cost, err = cm.ScheduleCost([][]preproc.KernelSpec{{mk(40)}, {mk(200)}})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("overload should be exposed")
	}
	// Slack does NOT flow backwards: stuffing everything in the last
	// stage exposes latency even though total capacity would suffice.
	costLate, err := cm.ScheduleCost([][]preproc.KernelSpec{nil, {mk(140)}})
	if err != nil {
		t.Fatal(err)
	}
	if costLate <= 0 {
		t.Fatal("late placement should expose latency")
	}
	costEarly, err := cm.ScheduleCost([][]preproc.KernelSpec{{mk(140)}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if costEarly != 0 {
		t.Fatalf("early placement should be hidden, got %f", costEarly)
	}
	if _, err := cm.ScheduleCost([][]preproc.KernelSpec{nil}); err == nil {
		t.Fatal("stage-count mismatch accepted")
	}
}

func TestNewCostModelErrors(t *testing.T) {
	if _, err := NewCostModel(nil, []StageCapacity{{}}); err == nil {
		t.Fatal("nil predictor accepted")
	}
	if _, err := NewCostModel(AnalyticPredictor(), nil); err == nil {
		t.Fatal("no capacities accepted")
	}
}

// TestNewCostModelRejectsBadStage: a NaN, infinite or negative
// capacity or leftover on any stage is rejected, and the error names
// the stage; every GPU's profiled capacities pass.
func TestNewCostModelRejectsBadStage(t *testing.T) {
	cfg, pl := testConfig()
	good, err := EstimateCapacities(cfg, pl, 0, gpusim.ClusterConfig{NumGPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	const at = 3
	for _, tc := range []struct {
		name  string
		set   func(*StageCapacity)
		valid bool
	}{
		{"zero capacity and leftover", func(c *StageCapacity) { c.Capacity, c.Leftover.SM, c.Leftover.MemBW = 0, 0, 0 }, true},
		{"capacity NaN", func(c *StageCapacity) { c.Capacity = math.NaN() }, false},
		{"capacity +Inf", func(c *StageCapacity) { c.Capacity = math.Inf(1) }, false},
		{"capacity -Inf", func(c *StageCapacity) { c.Capacity = math.Inf(-1) }, false},
		{"capacity negative", func(c *StageCapacity) { c.Capacity = -1 }, false},
		{"leftover SM NaN", func(c *StageCapacity) { c.Leftover.SM = math.NaN() }, false},
		{"leftover SM +Inf", func(c *StageCapacity) { c.Leftover.SM = math.Inf(1) }, false},
		{"leftover SM negative", func(c *StageCapacity) { c.Leftover.SM = -0.1 }, false},
		{"leftover MemBW NaN", func(c *StageCapacity) { c.Leftover.MemBW = math.NaN() }, false},
		{"leftover MemBW +Inf", func(c *StageCapacity) { c.Leftover.MemBW = math.Inf(1) }, false},
		{"leftover MemBW negative", func(c *StageCapacity) { c.Leftover.MemBW = -0.1 }, false},
	} {
		caps := append([]StageCapacity(nil), good...)
		tc.set(&caps[at])
		_, err := NewCostModel(AnalyticPredictor(), caps)
		if tc.valid {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if want := fmt.Sprintf("stage %d (%s)", at, caps[at].Name); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
	}
	for gpu := 0; gpu < pl.NumGPUs; gpu++ {
		caps, err := EstimateCapacities(cfg, pl, gpu, gpusim.ClusterConfig{NumGPUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewCostModel(AnalyticPredictor(), caps); err != nil {
			t.Errorf("gpu %d: profiled capacities rejected: %v", gpu, err)
		}
	}
}
