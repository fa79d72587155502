// Package sched implements RAP's resource-aware co-running scheduling:
// Algorithm 1 of the paper (assign fused preprocessing kernels to DLRM
// training stages by overlapping capacity, sharding kernels that exceed
// the remaining headroom) and the §6.3 inter-batch workload interleaving
// executed by the pipeline builder.
package sched

import (
	"fmt"
	"math"
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

// namer gives split pieces their final names: a whole kernel keeps its
// name; a split piece is the planned name without any `~shard`/`~rest`
// suffix, plus its own. A planned kernel's pieces are adjacent in
// launch order, so it keeps the last split kernel's two names and
// builds them once per planned kernel, not once per piece.
type namer struct {
	planned, shard, rest string
}

// named returns the pieces' kernels with their final names. Empty
// input gives nil.
func (nm *namer) named(ps []piece) []preproc.KernelSpec {
	if len(ps) == 0 {
		return nil
	}
	out := make([]preproc.KernelSpec, len(ps))
	for i, p := range ps {
		out[i] = p.k
		if p.part == wholePart {
			continue
		}
		if p.k.Name != nm.planned || nm.shard == "" {
			base := strings.TrimSuffix(strings.TrimSuffix(p.k.Name, "~shard"), "~rest")
			nm.planned, nm.shard, nm.rest = p.k.Name, base+"~shard", base+"~rest"
		}
		if p.part == shardPart {
			out[i].Name = nm.shard
		} else {
			out[i].Name = nm.rest
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
	// pieces counts the shards cut in both passes, the discarded first
	// pass included: the piece loop's work, where shards is the result.
	pieces int
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
		PredictedExposed: a.exposed,
		NumShards:        a.shards,
	}
	var nm namer
	for s, ps := range a.perStage {
		out.PerStage[s] = nm.named(ps)
	}
	out.Overflow = nm.named(a.overflow)
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
	// first half holds the planned kernels with their predictions; the
	// assignment works on a copy in the second half.
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
	//
	// When the selected stages are not enough (sharding overhead,
	// demand limits), the assignment is redone over every stage,
	// preserving launch order, before latency is declared exposed. Up to
	// the first unselected stage the two passes are the same, so that
	// prefix runs once and the redo restarts from its state; when every
	// stage is selected the redo would repeat the first pass exactly, so
	// there is none. The prefix changes no queue entry past the one it
	// stops at, so the redo restores the queue from planned and that
	// one entry.
	//
	// With keep, the placed pieces go to one slice, stage after stage,
	// and each stage's pieces are its window of that slice; the redo
	// truncates it to the prefix's pieces.
	var out assignment
	var placed []piece
	if keep {
		out.perStage = make([][]piece, numStages)
	}
	copy(queue, planned)
	backlog := 0.0
	pos := 0
	// A split piece differs from the planned kernel at its queue
	// position only in Elements, so every piece is predicted from its
	// queue entry and its own element count (PredictAt), copying no
	// spec. Prediction is a pure function of the two, so a shard at the
	// same position with bit-identical Elements as the last one
	// predicted reuses its prediction: demand-limited runs cut the same
	// shard over and over.
	shardPos, shardElems, shardP := -1, uint64(0), 0.0
	predictShard := func(elems float64) float64 {
		if pos != shardPos || math.Float64bits(elems) != shardElems {
			shardPos, shardElems, shardP = pos, math.Float64bits(elems), cm.Pred.PredictAt(&queue[pos].k, elems)
		}
		return shardP
	}
	stage := func(s int) {
		start := len(placed)
		sum := 0.0
		remaining := cm.Caps[s].Capacity * packFraction
		leftover := cm.Caps[s].Leftover
		occCap := leftover.SM + DemandSlack
		if occCap > MaxCoRunOcc {
			occCap = MaxCoRunOcc
		}
		// The demand bound depends only on the kernel's type and the
		// stage's leftover: compute it once per queue position.
		demandPos, demandMax := -1, 0.0
		for selected[s] && pos < len(queue) {
			q := &queue[pos]
			p := q.p
			if p <= 0 {
				pos++
				continue
			}
			if pos != demandPos {
				demandPos, demandMax = pos, q.k.MaxElementsForDemand(occCap, leftover.MemBW+DemandSlack)
			}
			if demandMax <= 0 {
				break // this stage can never host this kernel type
			}
			elems := q.k.Elements
			frac := 1.0
			if elems > demandMax {
				frac = demandMax / elems
			}
			if capFrac := remaining / p; capFrac < frac {
				frac = capFrac
			}
			if frac >= 1 {
				if keep {
					placed = append(placed, *q)
				}
				sum += p
				remaining -= p
				pos++
				continue
			}
			if opts.DisableSharding || remaining < minShardLatency {
				break // stage full; spill to the next selected stage
			}
			e1, e2 := preproc.ShardElements(elems, frac)
			p1 := predictShard(e1)
			if p1 > remaining && frac > 0.002 {
				// A demand-limited shard runs at leftover speed, so
				// its latency exceeds the naive frac·p estimate;
				// shrink it to the remaining capacity.
				e1, e2 = preproc.ShardElements(elems, frac*remaining/p1)
				p1 = predictShard(e1)
			}
			if p1 < minShardLatency || p1 > remaining+minShardLatency {
				break // no useful piece fits this stage
			}
			if keep {
				pc := piece{k: q.k, p: p1, part: shardPart}
				pc.k.Elements = e1
				placed = append(placed, pc)
			}
			sum += p1
			remaining -= p1
			out.shards++
			out.pieces++
			// The rest is the queue entry with the rest's Elements,
			// written in place.
			q.k.Elements = e2
			q.p, q.part = cm.Pred.PredictAt(&q.k, e2), restPart
			// Keep filling this stage: more pieces may fit.
		}
		backlog += sum
		backlog -= cm.Caps[s].Capacity
		if backlog < 0 {
			backlog = 0
		}
		if keep && len(placed) > start {
			out.perStage[s] = placed[start:len(placed):len(placed)]
		}
	}

	first := 0
	for first < numStages && selected[first] {
		stage(first)
		first++
	}
	if first < numStages {
		pos0, backlog0, shards0, placed0 := pos, backlog, out.shards, len(placed)
		var head piece
		if pos0 < len(queue) {
			head = queue[pos0]
		}
		for s := first; s < numStages; s++ {
			stage(s)
		}
		if pos < len(queue) {
			pos, backlog, out.shards, placed = pos0, backlog0, shards0, placed[:placed0]
			copy(queue[pos0:], planned[pos0:])
			queue[pos0] = head
			for s := first; s < numStages; s++ {
				selected[s] = true
				if keep {
					out.perStage[s] = nil
				}
				stage(s)
			}
		}
	}
	out.exposed = backlog
	for _, pc := range queue[pos:] {
		out.exposed += pc.p
	}
	if keep {
		out.overflow = queue[pos:]
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
