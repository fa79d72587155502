package preproc_test

import (
	"math"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/gbdt"
	"rap/internal/gpusim"
	"rap/internal/preproc"
)

const (
	warpSize       = preproc.WarpSize
	elemsPerThread = preproc.ElemsPerThread
	warpsSaturate  = preproc.WarpsSaturate
	baseThroughput = preproc.BaseThroughput
	minKernelWork  = preproc.MinKernelWork
)

func costFactor(t preproc.OpType) float64 { return preproc.CostFactor(t) }

// refSpec carries the solo-latency chain as it stood before the
// element-count form (SoloLatencyAt), verbatim but for the receiver
// type: value receivers, every step reading the spec's own Elements.
type refSpec preproc.KernelSpec

func (s refSpec) Warps() int {
	w := int(math.Ceil(s.Elements / float64(warpSize*elemsPerThread)))
	if w < 1 {
		w = 1
	}
	return w
}

func (s refSpec) occupancy() float64 {
	if s.Elements >= warpsSaturate*warpSize*elemsPerThread {
		return 1
	}
	return float64(s.Warps()) / warpsSaturate
}

func (s refSpec) Work() float64 {
	scale := s.ParamScale
	if scale <= 0 {
		scale = 1
	}
	return s.Elements*costFactor(s.Type)*scale/(baseThroughput*s.occupancy()) + minKernelWork
}

func (s refSpec) SoloLatency() float64 {
	return gpusim.DefaultLaunchOverhead + s.Work()
}

// sameBits reports whether two specs agree field by field, floats bit
// for bit (so NaN fields compare equal to themselves).
func sameBits(a, b preproc.KernelSpec) bool {
	return a.Name == b.Name && a.Type == b.Type && a.FusedCount == b.FusedCount &&
		math.Float64bits(a.Elements) == math.Float64bits(b.Elements) &&
		math.Float64bits(a.ParamScale) == math.Float64bits(b.ParamScale)
}

// FuzzSoloLatencyAt holds KernelSpec.SoloLatencyAt(elems) bit for bit
// to the reference chain above on a copy of the spec with Elements set
// to elems, and Warps, Work, SoloLatency and Demand's occupancy to the
// same chain on the spec itself. It holds Predictor.PredictAt(&spec,
// elems) bit for bit to Predict on that copy, for the analytic
// predictor and a six-tree GBDT, and checks that neither form changes
// the spec. The seeds cover every op type, ParamScale <= 0, FusedCount
// 0, tiny and huge counts and the occupancy saturation point (32,768
// elements) with its neighbouring floats; tier-1 runs them. Explore
// further with
//
//	go test -run '^$' -fuzz FuzzSoloLatencyAt -fuzztime 60s ./internal/preproc
func FuzzSoloLatencyAt(f *testing.F) {
	types := preproc.AllOpTypes()
	sat := float64(warpsSaturate * warpSize * elemsPerThread)
	below, above := math.Nextafter(sat, 0), math.Nextafter(sat, math.Inf(1))
	for i := range types {
		f.Add(uint8(i), 1e6, 1.0, 1, 4096.0, i%2 == 0)
	}
	f.Add(uint8(0), 1e6, 0.0, 1, 100.0, false)
	f.Add(uint8(1), 1e6, -2.5, 3, 100.0, true)
	f.Add(uint8(2), 5e4, 1.7, 0, 33.0, false)
	counts := []float64{0, 1, 31, 32, 33, 1e15, 32767, sat, below, above}
	for i, e := range counts {
		other := counts[(i+3)%len(counts)]
		f.Add(uint8(i), e, 1.3, i%3, other, i%2 == 1)
		f.Add(uint8(i+1), other, 0.9, 2, e, i%2 == 0)
	}

	analytic := costmodel.AnalyticPredictor()
	trained, err := costmodel.TrainPredictor(costmodel.CollectTrainingData(800, 1), gbdt.Config{NumTrees: 6, MaxDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ty uint8, specElems, scale float64, fused int, elems float64, useGBDT bool) {
		spec := preproc.KernelSpec{
			Name:       "k",
			Type:       types[int(ty)%len(types)],
			Elements:   specElems,
			ParamScale: scale,
			FusedCount: fused,
		}
		orig := spec
		at := spec
		at.Elements = elems

		bits := math.Float64bits
		if got, want := spec.SoloLatencyAt(elems), refSpec(at).SoloLatency(); bits(got) != bits(want) {
			t.Fatalf("%+v: SoloLatencyAt(%v) = %v, want %v", spec, elems, got, want)
		}
		ref := refSpec(spec)
		if got, want := spec.Warps(), ref.Warps(); got != want {
			t.Fatalf("%+v: Warps = %d, want %d", spec, got, want)
		}
		if got, want := spec.Work(), ref.Work(); bits(got) != bits(want) {
			t.Fatalf("%+v: Work = %v, want %v", spec, got, want)
		}
		if got, want := spec.SoloLatency(), ref.SoloLatency(); bits(got) != bits(want) {
			t.Fatalf("%+v: SoloLatency = %v, want %v", spec, got, want)
		}
		if got, want := spec.Demand().SM, ref.occupancy(); bits(got) != bits(want) {
			t.Fatalf("%+v: occupancy = %v, want %v", spec, got, want)
		}

		pred := analytic
		if useGBDT {
			pred = trained
		}
		if got, want := pred.PredictAt(&spec, elems), pred.Predict(at); bits(got) != bits(want) {
			t.Fatalf("%+v (GBDT %v): PredictAt(%v) = %v, want %v", spec, useGBDT, elems, got, want)
		}
		if !sameBits(spec, orig) {
			t.Fatalf("spec changed from %+v to %+v", orig, spec)
		}
	})
}
