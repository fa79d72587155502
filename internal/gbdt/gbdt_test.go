package gbdt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, Config{}); err == nil {
		t.Fatal("zero-width features accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestFitsConstant(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	m, err := Train(X, y, Config{NumTrees: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{2.5}); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant fit = %f", got)
	}
}

func TestFitsStepFunction(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := float64(i)
		X = append(X, []float64{x})
		if x < 50 {
			y = append(y, 10)
		} else {
			y = append(y, 20)
		}
	}
	m, err := Train(X, y, Config{NumTrees: 60, MaxDepth: 2, LearningRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{10}); math.Abs(got-10) > 0.5 {
		t.Fatalf("left step = %f", got)
	}
	if got := m.Predict([]float64{90}); math.Abs(got-20) > 0.5 {
		t.Fatalf("right step = %f", got)
	}
}

func TestFitsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []float64
	target := func(a, b float64) float64 { return 3*a + a*b + 2 }
	for i := 0; i < 600; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		X = append(X, []float64{a, b})
		y = append(y, target(a, b))
	}
	m, err := Train(X, y, Config{NumTrees: 150, MaxDepth: 5, LearningRate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.withinRelative(X, y, 0.10); acc < 0.9 {
		t.Fatalf("train accuracy@10%% = %f", acc)
	}
	// Held-out points.
	var Xt [][]float64
	var yt []float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		Xt = append(Xt, []float64{a, b})
		yt = append(yt, target(a, b))
	}
	if acc := m.withinRelative(Xt, yt, 0.15); acc < 0.8 {
		t.Fatalf("test accuracy@15%% = %f", acc)
	}
}

func TestMoreTreesHelp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a := rng.Float64() * 5
		X = append(X, []float64{a})
		y = append(y, math.Sin(a)*10)
	}
	few, err := Train(X, y, Config{NumTrees: 3})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Train(X, y, Config{NumTrees: 80})
	if err != nil {
		t.Fatal(err)
	}
	if many.rmse(X, y) >= few.rmse(X, y) {
		t.Fatalf("boosting did not reduce RMSE: %f vs %f", many.rmse(X, y), few.rmse(X, y))
	}
	if len(many.trees) != 80 {
		t.Fatalf("%d trees, want 80", len(many.trees))
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64()})
		y = append(y, rng.Float64()*10)
	}
	m1, err := Train(X, y, Config{NumTrees: 20})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, Config{NumTrees: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if m1.Predict(x) != m2.Predict(x) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestPredictWrongWidthPanics(t *testing.T) {
	m, err := Train([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}}, []float64{1, 2, 3, 4, 5, 6}, Config{NumTrees: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong width")
		}
	}()
	m.Predict([]float64{1})
}

func TestWithinRelativeAndRMSEEdges(t *testing.T) {
	m, err := Train([][]float64{{1}, {2}, {3}, {4}, {5}, {6}}, []float64{1, 1, 1, 1, 1, 1}, Config{NumTrees: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.withinRelative(nil, nil, 0.1) != 0 || m.rmse(nil, nil) != 0 {
		t.Fatal("empty eval should be 0")
	}
	if acc := m.withinRelative([][]float64{{1}}, []float64{1}, 0.1); acc != 1 {
		t.Fatalf("perfect accuracy = %f", acc)
	}
}

// Property: predictions on training points stay within [min(y), max(y)]
// widened by a small margin (each tree predicts residual means, so the
// ensemble cannot wildly overshoot the target range).
func TestPredictionRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range X {
			X[i] = []float64{rng.Float64() * 100, rng.Float64()}
			y[i] = rng.Float64()*50 - 25
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		m, err := Train(X, y, Config{NumTrees: 30, MaxDepth: 3})
		if err != nil {
			return false
		}
		margin := (hi - lo) + 1
		for i := range X {
			p := m.Predict(X[i])
			if p < lo-margin || p > hi+margin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// rmse returns the root-mean-squared error of the model on (X, y).
func (m *Model) rmse(X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	s := 0.0
	for i, row := range X {
		d := m.Predict(row) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(X)))
}

// withinRelative returns the fraction of samples whose prediction is
// within tol (relative) of the target — the Table 5 accuracy metric
// ("predicted latency deviates by no more than a 10% gap").
func (m *Model) withinRelative(X [][]float64, y []float64, tol float64) float64 {
	if len(X) == 0 {
		return 0
	}
	hit := 0
	for i, row := range X {
		p := m.Predict(row)
		if math.Abs(p-y[i]) <= tol*math.Max(math.Abs(y[i]), 1e-12) {
			hit++
		}
	}
	return float64(hit) / float64(len(X))
}
