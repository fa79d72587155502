package costmodel

import (
	"fmt"
	"math"

	"rap/internal/preproc"
)

// CostModel is the §5.3 co-running cost model: given a candidate
// co-running schedule it predicts the exposed input-preprocessing
// latency LΔ = Σᵢ pᵢ − C_ov, where pᵢ are predicted standalone kernel
// latencies and C_ov is the training iteration's overlapping capacity.
// LΔ < 0 means the schedule hides preprocessing completely.
type CostModel struct {
	Pred *Predictor
	Caps []StageCapacity
}

// NewCostModel wires a predictor and the profiled stage capacities.
// Every stage's Capacity, Leftover.SM and Leftover.MemBW must be finite
// and non-negative: a NaN would turn each of Algorithm 1's comparisons
// false and its predicted exposure NaN.
func NewCostModel(pred *Predictor, caps []StageCapacity) (*CostModel, error) {
	if pred == nil {
		return nil, fmt.Errorf("costmodel: nil predictor")
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("costmodel: no stage capacities")
	}
	for i, c := range caps {
		for _, v := range [...]float64{c.Capacity, c.Leftover.SM, c.Leftover.MemBW} {
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("costmodel: stage %d (%s): capacity %v, leftover SM %v and MemBW %v must each be finite and >= 0",
					i, c.Name, c.Capacity, c.Leftover.SM, c.Leftover.MemBW)
			}
		}
	}
	return &CostModel{Pred: pred, Caps: caps}, nil
}

// TotalCapacity is the per-iteration overlapping capacity (µs).
//
//rap:unit return us
func (cm *CostModel) TotalCapacity() float64 { return TotalCapacity(cm.Caps) }

// PredictTotal sums the predicted standalone latencies of the kernels.
//
//rap:unit return us
func (cm *CostModel) PredictTotal(kernels []preproc.KernelSpec) float64 {
	t := 0.0
	for _, k := range kernels {
		t += cm.Pred.Predict(k)
	}
	return t
}

// ExposedLatency returns LΔ for running the given kernels within one
// training iteration. Negative values indicate slack.
//
//rap:unit return us
func (cm *CostModel) ExposedLatency(kernels []preproc.KernelSpec) float64 {
	return cm.PredictTotal(kernels) - cm.TotalCapacity()
}

// ExposedLatencyClamped returns max(0, LΔ) — the cost the mapping search
// minimizes per GPU (§7.2).
//
//rap:unit return us
func (cm *CostModel) ExposedLatencyClamped(kernels []preproc.KernelSpec) float64 {
	if v := cm.ExposedLatency(kernels); v > 0 {
		return v
	}
	return 0
}

// ScheduleCost evaluates a per-stage assignment (assign[s] overlaps
// stage s): per-stage exposure accumulates when a stage's kernels exceed
// its capacity, and slack from earlier stages carries forward (the
// preprocessing stream keeps running across stage boundaries). Kept for
// sched's test oracle corunReference.
//
//rap:unit return us
func (cm *CostModel) ScheduleCost(assign [][]preproc.KernelSpec) (float64, error) {
	if len(assign) != len(cm.Caps) {
		return 0, fmt.Errorf("costmodel: schedule covers %d stages, profile has %d", len(assign), len(cm.Caps))
	}
	backlog := 0.0
	for s, kernels := range assign {
		backlog += cm.PredictTotal(kernels)
		backlog -= cm.Caps[s].Capacity
		if backlog < 0 {
			backlog = 0
		}
	}
	return backlog, nil
}
