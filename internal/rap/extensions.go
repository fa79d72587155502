package rap

import "fmt"

// This file implements the §10 "Discussion" extension of the paper:
// plan regeneration under input-distribution shift.

// WithListLen returns a copy of the workload whose expected multi-hot
// list length changed — the input-distribution shift of §10 ("the input
// distribution may shift over time"). The preprocessing graphs are
// shared; only the cost-model shapes and the generator change.
func (w *Workload) WithListLen(avgListLen float64) *Workload {
	out := *w
	plan := *w.Plan
	plan.AvgListLen = avgListLen
	out.Plan = &plan
	out.Gen.AvgListLen = avgListLen
	model := w.Model
	model.AvgPooling = avgListLen
	out.Model = model
	return &out
}

// AdaptToShift implements the §10 regeneration: given the shifted
// distribution's average list length, it re-profiles the embedding
// layers' overlapping capacity (which depends on pooling volume) and
// re-runs the fusion + mapping + scheduling search. The returned plan
// replaces the stale one; the framework's workload is updated in place.
// A list length that is not positive, or that the shifted workload
// cannot validate (+Inf), is rejected before the framework changes.
//
//rap:deterministic
func (f *Framework) AdaptToShift(avgListLen float64, opts BuildOptions) (*ExecPlan, error) {
	if !(avgListLen > 0) {
		return nil, fmt.Errorf("rap: shifted list length %v is not positive", avgListLen)
	}
	w := f.W.WithListLen(avgListLen)
	if err := w.Validate(); err != nil {
		return nil, err
	}
	f.W = w
	return f.BuildPlan(opts)
}
