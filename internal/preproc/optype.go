// Package preproc implements the DLRM input-preprocessing operators of
// Table 1 in the RAP paper, the per-feature preprocessing DAGs they form,
// and the standard preprocessing plans (Table 3) used throughout the
// evaluation.
//
// Every operator has two faces:
//
//   - Apply actually transforms a tensor.Batch on the CPU, so the
//     pipeline produces real model input (semantics are unit-tested);
//   - Footprint produces a KernelSpec — the simulated GPU kernel cost
//     (solo work, warps, SM/bandwidth demand) that the cost model,
//     fusion planner and scheduler reason about.
package preproc

import (
	"fmt"
	"math"

	"rap/internal/gpusim"
)

// OpType enumerates the preprocessing operators (Table 1).
type OpType int

const (
	// Dense normalization.
	OpLogit OpType = iota
	OpBoxCox
	OpOneHot
	// Sparse normalization.
	OpSigridHash
	OpFirstX
	OpClamp
	// Feature generation.
	OpBucketize
	OpNGram
	OpMapID
	// Others.
	OpFillNull
	OpCast

	numOpTypes
)

// AllOpTypes lists every operator type in Table 1 order.
func AllOpTypes() []OpType {
	out := make([]OpType, numOpTypes)
	for i := range out {
		out[i] = OpType(i)
	}
	return out
}

// String returns the paper's operator name.
func (t OpType) String() string {
	switch t {
	case OpLogit:
		return "Logit"
	case OpBoxCox:
		return "BoxCox"
	case OpOneHot:
		return "Onehot"
	case OpSigridHash:
		return "SigridHash"
	case OpFirstX:
		return "FirstX"
	case OpClamp:
		return "Clamp"
	case OpBucketize:
		return "Bucketize"
	case OpNGram:
		return "Ngram"
	case OpMapID:
		return "Mapid"
	case OpFillNull:
		return "FillNull"
	case OpCast:
		return "Cast"
	default:
		return fmt.Sprintf("OpType(%d)", int(t))
	}
}

// PredictorCategory groups operator types the way the paper trains its
// latency predictor (Table 5): NGram, OneHot, Bucketize and FirstX get
// dedicated models; everything else is "1D Ops".
func (t OpType) PredictorCategory() string {
	switch t {
	case OpNGram:
		return "Ngram"
	case OpOneHot:
		return "Onehot"
	case OpBucketize:
		return "Bucketize"
	case OpFirstX:
		return "FirstX"
	default:
		return "1D Ops"
	}
}

// Cost-model constants for the simulated A100-class GPU. The absolute
// values are calibration constants; RAP's behaviour depends only on
// their relative magnitudes (feature generation ≫ normalization, §3).
const (
	warpSize = 32
	// elemsPerThread: DLRM preprocessing kernels parallelize across
	// samples/ids with one element per thread (list-parallel layout), so
	// whole-batch kernels saturate the GPU — which is why the unmanaged
	// baselines contend with training (§8.2) and RAP shards (§6.2).
	elemsPerThread = 1
	// warpsSaturate is the resident-warp count at which a kernel can use
	// the whole GPU.
	warpsSaturate = 1024
	// baseThroughput is full-GPU element throughput (elements/µs) for a
	// cost-factor-1 operator. Calibrated so that the preprocessing /
	// training work ratio of Plans 0-3 matches the paper's regime (Plan 0
	// well under one training iteration, Plan 3 approaching it).
	baseThroughput = 2900.0 //rap:unit elem/us
	// minKernelWork is the latency floor of any kernel (µs): a couple of
	// memory round-trips.
	minKernelWork = 1.5 //rap:unit us
)

// costFactor is the per-element compute cost relative to a trivial
// element-wise op.
//
//rap:unit return 1
func (t OpType) costFactor() float64 {
	switch t {
	case OpFillNull:
		return 0.8
	case OpCast:
		return 0.6
	case OpLogit:
		return 1.2
	case OpBoxCox:
		return 1.8
	case OpOneHot:
		return 1.0
	case OpSigridHash:
		return 2.2
	case OpFirstX:
		return 0.9
	case OpClamp:
		return 0.7
	case OpBucketize:
		return 1.6
	case OpNGram:
		return 6.0 // per produced n-gram; the heavy feature-generation op
	case OpMapID:
		return 1.3
	default:
		return 1.0
	}
}

// bwIntensity is the fraction of DRAM bandwidth the op can use at full
// occupancy. Compute-heavier ops (hashing, n-grams) press bandwidth
// less per slot than pure streaming ops.
func (t OpType) bwIntensity() float64 {
	switch t {
	case OpNGram:
		return 0.45
	case OpSigridHash:
		return 0.35
	case OpBucketize:
		return 0.4
	default:
		return 0.4
	}
}

// KernelSpec is the simulated cost of one (possibly fused, possibly
// sharded) preprocessing kernel.
type KernelSpec struct {
	Name string
	Type OpType
	// Elements is the number of data elements the kernel touches.
	Elements float64 //rap:unit elem
	// ParamScale folds operator parameters (n-gram order, bucket count
	// …) into the per-element cost.
	ParamScale float64 //rap:unit 1
	// FusedCount is the number of original operators fused into this
	// kernel (1 = unfused).
	FusedCount int
}

// Warps returns the launch size of the kernel.
func (s KernelSpec) Warps() int { return warpsAt(s.Elements) }

// warpsAt returns the launch size of a kernel of elems elements.
func warpsAt(elems float64) int {
	w := int(math.Ceil(elems / float64(warpSize*elemsPerThread)))
	if w < 1 {
		w = 1
	}
	return w
}

// occupancyAt is the fraction of the GPU a launch of elems elements can
// cover: min(1, Warps/warpsSaturate). A kernel of at least
// warpsSaturate full warps of elements covers the whole GPU; below
// that, Warps is at most warpsSaturate, so the ratio needs no clamp.
//
//rap:unit return 1
func occupancyAt(elems float64) float64 {
	if elems >= warpsSaturate*warpSize*elemsPerThread {
		return 1
	}
	return float64(warpsAt(elems)) / warpsSaturate
}

// Work returns the kernel's solo execution time in µs (excluding launch
// overhead). Throughput is occupancy-limited: a kernel too small to fill
// the GPU processes elements at a proportionally lower rate — the
// under-utilization of fine-grained preprocessing kernels that motivates
// horizontal fusion (§2.3) and gives resource-aware sharding its real
// cost (a shard confined to leftover resources runs at leftover speed).
//
//rap:unit return us
func (s KernelSpec) Work() float64 { return s.workAt(s.Elements) }

// workAt is Work for the kernel with its Elements replaced by elems.
// It reads the spec through a pointer, so asking what a shard of the
// kernel would cost copies no spec.
//
//rap:unit return us
func (s *KernelSpec) workAt(elems float64) float64 {
	scale := s.ParamScale
	if scale <= 0 {
		scale = 1
	}
	return elems*s.Type.costFactor()*scale/(baseThroughput*occupancyAt(elems)) + minKernelWork
}

// SaturatedWork returns the execution time the kernel's element count
// would take at full-GPU throughput — the occupancy-independent work
// volume, used to derive CPU-side costs for the TorchArrow baseline.
//
//rap:unit return us
func (s KernelSpec) SaturatedWork() float64 {
	scale := s.ParamScale
	if scale <= 0 {
		scale = 1
	}
	return s.Elements * s.Type.costFactor() * scale / baseThroughput
}

// Demand returns the kernel's GPU resource demand. SM demand equals the
// kernel's occupancy — spatial sharing contends on resident-warp slots,
// so a launch that covers a fraction of the GPU demands exactly that
// fraction of SM capacity.
func (s KernelSpec) Demand() gpusim.Demand {
	occ := occupancyAt(s.Elements)
	return gpusim.Demand{
		SM:    occ,
		MemBW: s.Type.bwIntensity() * occ,
	}
}

// SoloLatency returns launch overhead + work.
//
//rap:unit return us
func (s KernelSpec) SoloLatency() float64 { return s.SoloLatencyAt(s.Elements) }

// SoloLatencyAt returns the solo latency (launch overhead + work) the
// kernel would have with elems elements in place of its Elements,
// bit for bit what SoloLatency returns on such a copy. The co-run
// scheduler predicts every shard and remainder it cuts this way.
//
//rap:unit return us
func (s *KernelSpec) SoloLatencyAt(elems float64) float64 {
	return gpusim.DefaultLaunchOverhead + s.workAt(elems)
}

// Kernel lowers the spec to a simulator kernel.
func (s KernelSpec) Kernel() gpusim.Kernel {
	return gpusim.Kernel{
		Name:   s.Name,
		Work:   s.Work(),
		Demand: s.Demand(),
		Warps:  s.Warps(),
		Tag:    "preproc",
	}
}

// MustFuse horizontally merges two same-type kernels: one launch,
// combined elements (§6.1). The result keeps the receiver's Name: both
// in-tree callers either rename the fused kernel (the fusion lowering)
// or ignore names (the profile-set generator), so building a joined
// name would only cost allocations. Like every Must* helper it panics
// on misuse — here, differing op types: both callers group kernels by
// op type before fusing, so a mixed-type pair is a programming error,
// not an input condition.
func (s KernelSpec) MustFuse(o KernelSpec) KernelSpec {
	if s.Type != o.Type {
		panic(fmt.Sprintf("preproc: cannot fuse %s with %s", s.Type, o.Type))
	}
	sc1, sc2 := s.ParamScale, o.ParamScale
	if sc1 <= 0 {
		sc1 = 1
	}
	if sc2 <= 0 {
		sc2 = 1
	}
	total := s.Elements + o.Elements
	scale := 1.0
	if total > 0 {
		scale = (sc1*s.Elements + sc2*o.Elements) / total
	}
	return KernelSpec{
		Name:       s.Name,
		Type:       s.Type,
		Elements:   total,
		ParamScale: scale,
		FusedCount: s.fusedCount() + o.fusedCount(),
	}
}

func (s KernelSpec) fusedCount() int {
	if s.FusedCount <= 0 {
		return 1
	}
	return s.FusedCount
}

// MaxElementsForDemand returns the largest element count a kernel of
// this type can carry while its resource demand stays within leftover —
// the §6.2 resource-aware constraint. Returns 0 when the leftover can
// never fit this type (its intensity exceeds the headroom at any size).
func (s KernelSpec) MaxElementsForDemand(leftoverSM, leftoverBW float64) float64 {
	occSM := leftoverSM
	occBW := 1.0
	if i := s.Type.bwIntensity(); i > 0 {
		occBW = leftoverBW / i
	}
	occ := math.Min(occSM, occBW)
	if occ <= 0 {
		return 0
	}
	if occ >= 1 {
		return math.Inf(1)
	}
	return occ * warpsSaturate * warpSize * elemsPerThread
}

// Shard splits the kernel into a piece with the given fraction of the
// elements and the remainder (§6.2's resource-aware kernel sharding),
// with ShardElements' arithmetic. Both pieces keep the receiver's Name;
// the co-run scheduler names the pieces it finally places (`~shard`,
// `~rest`). Kept for sched's test oracle corunReference.
func (s KernelSpec) Shard(frac float64) (KernelSpec, KernelSpec) {
	a, b := s, s
	a.Elements, b.Elements = ShardElements(s.Elements, frac)
	return a, b
}

// ShardElements splits an element count into a shard of the given
// fraction and the remainder. Fractions are clipped to [0.001, 0.999],
// so both keep at least a thousandth of the elements.
//
//rap:unit elements elem
//rap:unit frac 1
func ShardElements(elements, frac float64) (shard, rest float64) {
	if frac < 0.001 {
		frac = 0.001
	}
	if frac > 0.999 {
		frac = 0.999
	}
	return elements * frac, elements * (1 - frac)
}
