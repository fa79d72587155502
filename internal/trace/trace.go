// Package trace post-processes simulator results into the artifacts the
// paper's figures are built from: per-GPU utilization summaries
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
}

// Summarize computes the utilization summary of GPU g over [0, upTo]
// (upTo <= 0 = makespan). An out-of-range g, or a result recorded
// without timelines (gpusim.ClusterConfig.Timelines), yields a zero
// summary.
//
//rap:unit upTo us
func Summarize(res *gpusim.Result, g int, upTo float64) UtilSummary {
	sm, _ := res.AvgUtil(g, upTo)
	return UtilSummary{GPUUtil: res.BusyFraction(g, upTo), SMUtil: sm}
}

// MeanSummary averages summaries across GPUs. A non-positive numGPUs
// yields an empty summary instead of NaNs.
//
//rap:unit upTo us
func MeanSummary(res *gpusim.Result, numGPUs int, upTo float64) UtilSummary {
	var agg UtilSummary
	if numGPUs <= 0 {
		return agg
	}
	for g := 0; g < numGPUs; g++ {
		s := Summarize(res, g, upTo)
		agg.GPUUtil += s.GPUUtil
		agg.SMUtil += s.SMUtil
	}
	n := float64(numGPUs)
	agg.GPUUtil /= n
	agg.SMUtil /= n
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
