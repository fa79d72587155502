// Package sched implements RAP's resource-aware co-running scheduling:
// Algorithm 1 of the paper (assign fused preprocessing kernels to DLRM
// training stages by overlapping capacity, sharding kernels that exceed
// the remaining headroom) and the §6.3 inter-batch workload interleaving
// executed by the pipeline builder.
package sched

import (
	"fmt"
	"strings"

	"rap/internal/costmodel"
	"rap/internal/fusion"
	"rap/internal/preproc"
)

// Options tunes Algorithm 1.
type Options struct {
	// DisableSharding turns resource-aware kernel sharding off (kernels
	// are only placed whole) — for ablation studies.
	DisableSharding bool
}

// minShardLatency is the smallest useful shard (µs); leftover stage
// capacity below it is skipped rather than sharded into dust.
const minShardLatency = 8

// packFraction is the share of each stage's capacity the scheduler
// actually fills. Packing to 100% makes every stream backlog cascade
// into later, tighter stages where the oversized pieces contend with
// training; leftover work instead overflows to the inter-iteration gap
// where it runs fused at full occupancy.
const packFraction = 0.8

// DemandSlack adjusts the headroom target when fitting a shard's demand
// into a stage's leftover. It is slightly negative: co-running pieces
// stay strictly inside the headroom so the training stages they overlap
// are never stretched; work that does not fit runs fused at full
// occupancy in the inter-iteration gap instead, which is cheaper than
// stretching every stage (superlinear contention).
const DemandSlack = -0.03

// MaxCoRunOcc caps the occupancy of any co-running piece, even in
// stages with full headroom (communication stages): a piece that slides
// past its stage boundary because the preprocessing stream is backed up
// must not be able to flatten the next compute stage.
const MaxCoRunOcc = 0.4

// Schedule is the co-running plan of one GPU for one batch's
// preprocessing: which (possibly sharded) kernels overlap which training
// stage, in launch order.
type Schedule struct {
	// PerStage[s] holds the kernels overlapped with training stage s.
	// Kernels must be launched stage by stage, in slice order (the
	// preprocessing stream serializes them).
	PerStage [][]preproc.KernelSpec
	// Overflow holds kernels that did not fit into any stage's
	// remaining capacity; they run after the iteration's stages and are
	// the predicted exposed latency.
	Overflow []preproc.KernelSpec
	// PredictedExposed is the cost model's LΔ estimate for this schedule
	// (0 when everything is hidden).
	PredictedExposed float64
	// NumShards counts the resource-aware shard splits performed.
	NumShards int
}

// TotalKernels counts all scheduled kernels including overflow.
func (s *Schedule) TotalKernels() int {
	n := len(s.Overflow)
	for _, ks := range s.PerStage {
		n += len(ks)
	}
	return n
}

// AllKernels returns the launch-ordered kernel sequence.
func (s *Schedule) AllKernels() []preproc.KernelSpec {
	var out []preproc.KernelSpec
	for _, ks := range s.PerStage {
		out = append(out, ks...)
	}
	return append(out, s.Overflow...)
}

// part tells which piece of a planned kernel a scheduled piece is.
type part uint8

const (
	wholePart part = iota // never split
	shardPart             // the placed piece of a split
	restPart              // the remainder of a split
)

// piece is a kernel in Algorithm 1's queue. It carries its predicted
// latency, made once: for a planned kernel when the queue is built, for
// a split piece when the split is made. Splits keep the planned
// kernel's name and only record the part, so a split that is tried and
// discarded builds no string; named applies the suffix once the
// schedule is final.
type piece struct {
	k    preproc.KernelSpec
	p    float64 //rap:unit us
	part part
}

// named returns the pieces' kernels with their final names: a whole
// kernel keeps its name; a split piece is the planned name without any
// `~shard`/`~rest` suffix, plus its own. Empty input gives nil.
func named(ps []piece) []preproc.KernelSpec {
	if len(ps) == 0 {
		return nil
	}
	out := make([]preproc.KernelSpec, len(ps))
	for i, p := range ps {
		out[i] = p.k
		if p.part == wholePart {
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(p.k.Name, "~shard"), "~rest")
		if p.part == shardPart {
			out[i].Name = base + "~shard"
		} else {
			out[i].Name = base + "~rest"
		}
	}
	return out
}

// assignment is the outcome of one run of Algorithm 1.
type assignment struct {
	// perStage and overflow hold the placed pieces; both are nil unless
	// the caller asked to keep them.
	perStage [][]piece
	overflow []piece
	shards   int
	// exposed is the cost model's LΔ, summed from the carried
	// predictions in ScheduleCost's order plus the overflow.
	exposed float64 //rap:unit us
}

// CoRunSchedule is Algorithm 1: it takes the fused kernel plan of one
// GPU and the profiled stage capacities and greedily assigns kernels to
// training stages, sharding a kernel when the remaining capacity of the
// current stage cannot hold it whole.
//
//rap:deterministic
func CoRunSchedule(plan *fusion.Plan, cm *costmodel.CostModel, opts Options) (*Schedule, error) {
	a, err := corun(plan, cm, opts, true)
	if err != nil {
		return nil, err
	}
	out := &Schedule{
		PerStage:         make([][]preproc.KernelSpec, len(a.perStage)),
		Overflow:         named(a.overflow),
		PredictedExposed: a.exposed,
		NumShards:        a.shards,
	}
	for s, ps := range a.perStage {
		out.PerStage[s] = named(ps)
	}
	return out, nil
}

// CoRunExposed runs Algorithm 1 like CoRunSchedule and returns only its
// PredictedExposed, bit for bit. It keeps no pieces, builds no names
// and allocates no Schedule, so scoring a candidate mapping (§7.2)
// costs a few allocations however many shards Algorithm 1 makes.
//
//rap:deterministic
//rap:unit return us
func CoRunExposed(plan *fusion.Plan, cm *costmodel.CostModel, opts Options) (float64, error) {
	a, err := corun(plan, cm, opts, false)
	if err != nil {
		return 0, err
	}
	return a.exposed, nil
}

// corun is Algorithm 1, shared by CoRunSchedule and CoRunExposed; keep
// says whether to record the placed pieces.
func corun(plan *fusion.Plan, cm *costmodel.CostModel, opts Options, keep bool) (assignment, error) {
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

// SequentialSchedule places every kernel into the first stage's slot
// without capacity awareness — the handcrafted-baseline behaviour
// (stream/MPS: launch everything immediately, §8.2).
//
//rap:deterministic
func SequentialSchedule(kernels []preproc.KernelSpec, numStages int) *Schedule {
	s := &Schedule{PerStage: make([][]preproc.KernelSpec, numStages)}
	if numStages == 0 {
		s.Overflow = append(s.Overflow, kernels...)
		return s
	}
	s.PerStage[0] = append(s.PerStage[0], kernels...)
	return s
}
