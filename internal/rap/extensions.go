package rap

import (
	"fmt"

	"rap/internal/preproc"
	"rap/internal/sched"
)

// This file implements the §10 "Discussion" extensions of the paper:
// plan regeneration under input-distribution shift, and the hybrid
// CPU+GPU preprocessing mode for workloads that exceed the GPUs'
// overlapping capacity.

// WithListLen returns a copy of the workload whose expected multi-hot
// list length changed — the input-distribution shift of §10 ("the input
// distribution may shift over time"). The preprocessing graphs are
// shared; only the cost-model shapes and the generator change.
func (w *Workload) WithListLen(avgListLen float64) *Workload {
	if avgListLen <= 0 {
		avgListLen = 1
	}
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
// A list length the shifted workload cannot validate (NaN, ±Inf) is
// rejected before the framework changes.
//
//rap:deterministic
func (f *Framework) AdaptToShift(avgListLen float64, opts BuildOptions) (*ExecPlan, error) {
	w := f.W.WithListLen(avgListLen)
	if err := w.Validate(); err != nil {
		return nil, err
	}
	f.W = w
	return f.BuildPlan(opts)
}

// CPUSlowdownPerWorker is the cost ratio of one CPU preprocessing
// worker versus the GPU executing the same operator work: element-wise
// hashing/normalization throughput of one CPU worker vs. an A100-class
// GPU. It prices both the hybrid mode's spilled work and the TorchArrow
// baseline (the paper measures RAP at ~17.8× TorchArrow end to end).
const CPUSlowdownPerWorker = 500.0

// MakeHybrid converts a plan to the §10 hybrid CPU+GPU preprocessing
// mode: every GPU's overflow kernels (the work Algorithm 1 could not
// hide inside the training iteration) are segmented off and assigned to
// cpuWorkers host/remote CPU workers per GPU (a GoldMiner-style elastic
// CPU tier — the paper's hybrid "employs both GPUs and CPUs", spilling
// only the part the GPUs cannot absorb). The CPU work runs concurrently
// with training instead of extending the iteration. It returns the
// hybrid plan and the number of operators spilled; p is left untouched.
//
// Note the economics this makes explicit: one CPU worker is
// CPUSlowdownPerWorker× slower than the GPU, so the hybrid mode
// only pays off when the spilled work would otherwise be exposed AND the
// CPU tier is wide enough — exactly the paper's framing that GPU
// leftovers should carry the bulk and CPUs only the residue.
func MakeHybrid(p *ExecPlan, cpuWorkers int) (*ExecPlan, int, error) {
	if p == nil {
		return nil, 0, fmt.Errorf("rap: nil plan")
	}
	if cpuWorkers <= 0 {
		cpuWorkers = 8
	}
	h := *p
	h.Schedules = append([]*sched.Schedule(nil), p.Schedules...)
	h.Work = append([]sched.GPUWork(nil), p.Work...)
	h.PredictedExposedUs = append([]float64(nil), p.PredictedExposedUs...)
	spilled := 0
	for g, s := range p.Schedules {
		if len(s.Overflow) == 0 {
			continue
		}
		satUs := 0.0
		for _, k := range s.Overflow {
			satUs += k.SaturatedWork()
			spilled += kernelOpCount(k)
		}
		hs := *s
		hs.Overflow = nil
		hs.PredictedExposed = 0
		h.Schedules[g] = &hs
		w := &h.Work[g]
		w.Schedule = &hs
		w.CPUPreprocUs += satUs * CPUSlowdownPerWorker / float64(cpuWorkers)
		if w.CPUWorkers < cpuWorkers {
			w.CPUWorkers = cpuWorkers
		}
		h.PredictedExposedUs[g] = 0
	}
	return &h, spilled, nil
}

func kernelOpCount(k preproc.KernelSpec) int {
	if k.FusedCount <= 0 {
		return 1
	}
	return k.FusedCount
}
