// Package costmodel implements RAP's co-running cost model (§5): the
// ML-based preprocessing-latency predictor (§5.2), the overlapping-
// capacity estimator (§5.1) and the exposed-latency cost function (§5.3)
// that the fusion planner and the joint mapping search optimize against.
package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rap/internal/gbdt"
	"rap/internal/preproc"
)

// measurementNoise is the multiplicative jitter applied to "measured"
// kernel latencies during offline data collection, standing in for
// real-hardware run-to-run variance.
const measurementNoise = 0.05

// features extracts the predictor features of a kernel spec: operator
// type, data sizes and performance-related parameters — the inputs the
// paper feeds XGBoost.
func features(s preproc.KernelSpec) []float64 {
	scale := s.ParamScale
	if scale <= 0 {
		scale = 1
	}
	work := s.Elements * scale
	return []float64{
		float64(s.Type),
		s.Elements,
		math.Log2(s.Elements + 1),
		scale,
		float64(s.Warps()),
		work,
		math.Log2(work + 1),
	}
}

// Sample is one collected (kernel, measured latency) pair.
type Sample struct {
	Spec preproc.KernelSpec
	// Latency is the measured standalone latency (µs).
	Latency float64 //rap:unit us
}

// Dataset groups samples by predictor category (Table 5).
type Dataset struct {
	ByCategory map[string][]Sample
}

// Size returns the total sample count.
func (d Dataset) Size() int {
	n := 0
	for _, s := range d.ByCategory {
		n += len(s)
	}
	return n
}

// categories returns the dataset's category names in sorted order.
func (d Dataset) categories() []string {
	cats := make([]string, 0, len(d.ByCategory))
	for c := range d.ByCategory {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	return cats
}

// Split partitions every category into train/eval with the given train
// fraction (the paper uses 9:1), deterministically from seed. Categories
// draw their permutations from one rng in sorted order.
func (d Dataset) Split(trainFrac float64, seed int64) (train, eval Dataset) {
	rng := rand.New(rand.NewSource(seed))
	train = Dataset{ByCategory: map[string][]Sample{}}
	eval = Dataset{ByCategory: map[string][]Sample{}}
	for _, cat := range d.categories() {
		samples := d.ByCategory[cat]
		perm := rng.Perm(len(samples))
		cut := int(float64(len(samples)) * trainFrac)
		for i, p := range perm {
			if i < cut {
				train.ByCategory[cat] = append(train.ByCategory[cat], samples[p])
			} else {
				eval.ByCategory[cat] = append(eval.ByCategory[cat], samples[p])
			}
		}
	}
	return train, eval
}

// CollectTrainingData "profiles" kernels offline: it draws random kernel
// configurations for every operator type and records their standalone
// latency with measurement noise. total is the overall sample budget
// (the paper gathers ~11K kernels).
func CollectTrainingData(total int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	types := preproc.AllOpTypes()
	ds := Dataset{ByCategory: map[string][]Sample{}}
	for i := 0; i < total; i++ {
		ty := types[rng.Intn(len(types))]
		spec := randomSpec(ty, rng)
		noisy := spec.SoloLatency() * (1 + rng.NormFloat64()*measurementNoise)
		if noisy <= 0 {
			noisy = spec.SoloLatency()
		}
		cat := ty.PredictorCategory()
		ds.ByCategory[cat] = append(ds.ByCategory[cat], Sample{Spec: spec, Latency: noisy})
	}
	return ds
}

// randomSpec draws a plausible kernel configuration for an op type:
// batch sizes 256..16384, list lengths 1..8, and type-specific
// performance parameters.
func randomSpec(ty preproc.OpType, rng *rand.Rand) preproc.KernelSpec {
	samples := 256 << rng.Intn(7) // 256..16384
	listLen := 1 + rng.Float64()*7
	shape := preproc.Shape{Samples: samples, AvgListLen: listLen}
	var op preproc.Op
	switch ty {
	case preproc.OpFillNull:
		if rng.Intn(2) == 0 {
			op = preproc.NewFillNullDense("p", "in", "out", 0)
		} else {
			op = preproc.NewFillNullSparse("p", "in", "out", 0)
		}
	case preproc.OpCast:
		op = preproc.NewCast("p", "in", "out")
	case preproc.OpLogit:
		op = preproc.NewLogit("p", "in", "out", 0)
	case preproc.OpBoxCox:
		op = preproc.NewBoxCox("p", "in", "out", 0.25+rng.Float64())
	case preproc.OpOneHot:
		op = preproc.NewOneHot("p", "in", "out", 2+rng.Int63n(1<<uint(4+rng.Intn(16))))
	case preproc.OpSigridHash:
		op = preproc.NewSigridHash("p", "in", "out", 2+rng.Int63n(1<<30))
	case preproc.OpFirstX:
		op = preproc.NewFirstX("p", "in", "out", 1+rng.Intn(50))
	case preproc.OpClamp:
		op = preproc.NewClamp("p", "in", "out", 0, rng.Int63n(1<<30))
	case preproc.OpBucketize:
		borders := make([]float32, 2+rng.Intn(64))
		for i := range borders {
			borders[i] = rng.Float32() * 1000
		}
		op = preproc.NewBucketize("p", "in", "out", borders)
	case preproc.OpNGram:
		ins := make([]string, 1+rng.Intn(4))
		for i := range ins {
			ins[i] = fmt.Sprintf("in%d", i)
		}
		op = preproc.NewNGram("p", ins, "out", 2+rng.Intn(4), 2+rng.Int63n(1<<30))
	case preproc.OpMapID:
		op = preproc.NewMapID("p", "in", "out", map[int64]int64{1: 2})
	default:
		panic(fmt.Sprintf("costmodel: unhandled op type %v", ty))
	}
	spec := op.Spec(shape)
	// Emulate horizontal fusion in the profile set: fused kernels are
	// larger versions of the same type.
	if rng.Intn(3) == 0 {
		k := 2 + rng.Intn(6)
		fused := spec
		for i := 1; i < k; i++ {
			fused = fused.MustFuse(spec)
		}
		spec = fused
	}
	return spec
}

// Predictor is the trained per-category latency model.
type Predictor struct {
	models map[string]*gbdt.Model
}

// TrainPredictor fits one GBDT per category (Table 5's per-operator
// models plus the shared "1D Ops" model).
func TrainPredictor(ds Dataset, cfg gbdt.Config) (*Predictor, error) {
	if ds.Size() == 0 {
		return nil, fmt.Errorf("costmodel: empty training dataset")
	}
	p := &Predictor{models: map[string]*gbdt.Model{}}
	// Sorted, so a failure always reports the same category.
	for _, cat := range ds.categories() {
		samples := ds.ByCategory[cat]
		X := make([][]float64, len(samples))
		y := make([]float64, len(samples))
		for i, s := range samples {
			X[i] = features(s.Spec)
			y[i] = s.Latency
		}
		m, err := gbdt.Train(X, y, cfg)
		if err != nil {
			return nil, fmt.Errorf("costmodel: training %q model: %w", cat, err)
		}
		p.models[cat] = m
	}
	return p, nil
}

// Predict returns the predicted standalone latency (µs) of a kernel.
// Kernels of categories the predictor was never trained on fall back to
// the analytic model, so a predictor with no trained models (the
// AnalyticPredictor) returns it straight away.
//
//rap:unit return us
func (p *Predictor) Predict(spec preproc.KernelSpec) float64 {
	return p.PredictAt(&spec, spec.Elements)
}

// PredictAt returns Predict of spec with its Elements replaced by
// elems, leaving spec unchanged. The analytic model reads spec in
// place; only a trained model's features are taken from a copy.
//
//rap:unit return us
func (p *Predictor) PredictAt(spec *preproc.KernelSpec, elems float64) float64 {
	if len(p.models) == 0 {
		return spec.SoloLatencyAt(elems)
	}
	m, ok := p.models[spec.Type.PredictorCategory()]
	if !ok {
		return spec.SoloLatencyAt(elems)
	}
	s := *spec
	s.Elements = elems
	v := m.Predict(features(s))
	if v < 0 {
		return 0
	}
	return v
}

// Accuracy returns, per category, the fraction of eval samples whose
// prediction is within tol (relative) of the measured latency — the
// Table 5 protocol.
func (p *Predictor) Accuracy(eval Dataset, tol float64) map[string]float64 {
	out := map[string]float64{}
	for _, cat := range eval.categories() {
		samples := eval.ByCategory[cat]
		if len(samples) == 0 {
			continue
		}
		hits := 0
		for _, s := range samples {
			pred := p.Predict(s.Spec)
			if math.Abs(pred-s.Latency) <= tol*math.Max(s.Latency, 1e-9) {
				hits++
			}
		}
		out[cat] = float64(hits) / float64(len(samples))
	}
	return out
}

// AnalyticPredictor returns a Predictor-compatible fallback that uses
// the analytic cost model directly (no trained trees) — used by tests
// and as a baseline.
func AnalyticPredictor() *Predictor { return &Predictor{models: map[string]*gbdt.Model{}} }
