// Package trace post-processes simulator results into the artifacts the
// paper's figures are built from: tag-attributed utilization summaries
// (Table 4), turning-point detection (Figure 11) and Chrome trace-event
// timelines.
package trace

import "rap/internal/gpusim"

// UtilSummary is the Table 4 metric pair for one GPU.
type UtilSummary struct {
	// GPUUtil is the fraction of time with any kernel resident (the
	// NVML "GPU utilization" analogue).
	GPUUtil float64
	// SMUtil is the mean granted SM utilization.
	SMUtil float64
	// TagSM attributes mean SM utilization by kernel tag.
	TagSM map[string]float64
}

// Summarize computes the utilization summary of GPU g over [0, upTo]
// (upTo <= 0 = makespan). An out-of-range g yields a zero summary.
//
//rap:unit upTo us
func Summarize(res *gpusim.Result, g int, upTo float64) UtilSummary {
	if g < 0 || g >= len(res.Util) {
		return UtilSummary{TagSM: map[string]float64{}}
	}
	if upTo <= 0 {
		upTo = res.Makespan
	}
	sm, _ := res.AvgUtil(g, upTo)
	out := UtilSummary{
		GPUUtil: res.BusyFraction(g, upTo),
		SMUtil:  sm,
		TagSM:   map[string]float64{},
	}
	if upTo <= 0 {
		return out
	}
	for _, seg := range res.Util[g] {
		s, e := seg.Start, seg.End
		if s >= upTo {
			break
		}
		if e > upTo {
			e = upTo
		}
		for _, ts := range seg.TagSM {
			out.TagSM[ts.Tag] += ts.SM * (e - s) / upTo
		}
	}
	return out
}

// MeanSummary averages summaries across GPUs. A non-positive numGPUs
// yields an empty summary instead of NaNs.
//
//rap:unit upTo us
func MeanSummary(res *gpusim.Result, numGPUs int, upTo float64) UtilSummary {
	agg := UtilSummary{TagSM: map[string]float64{}}
	if numGPUs <= 0 {
		return agg
	}
	for g := 0; g < numGPUs; g++ {
		s := Summarize(res, g, upTo)
		agg.GPUUtil += s.GPUUtil
		agg.SMUtil += s.SMUtil
		//lint:ignore detaint each tag's sum adds this GPU's value once, so the visit order cannot change it
		for tag, v := range s.TagSM {
			agg.TagSM[tag] += v
		}
	}
	n := float64(numGPUs)
	agg.GPUUtil /= n
	agg.SMUtil /= n
	//lint:ignore detaint each tag is divided in place, independently of the others
	for tag := range agg.TagSM {
		agg.TagSM[tag] /= n
	}
	return agg
}

// TurningPoint returns the index of the first point in ys whose value
// exceeds baseline by more than rel (e.g. 0.10 for the paper's "latency
// increases by more than 10%" criterion), or -1 if none. The baseline is
// ys[0].
func TurningPoint(ys []float64, rel float64) int {
	if len(ys) == 0 {
		return -1
	}
	base := ys[0]
	for i, y := range ys {
		if y > base*(1+rel) {
			return i
		}
	}
	return -1
}
