package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Time-varying resource capacities. Every resource of the cluster (SM
// array, DRAM bandwidth, NVLink in/out, copy engine, host CPU pool)
// normally has capacity 1.0; capacity windows scale it down over a time
// interval, modeling thermal throttling, degraded links, and host
// stalls. Capacity is a step function of time: window boundaries become
// engine events, and between boundaries the contention math is exactly
// the constant-capacity math with 1.0 replaced by the current value —
// a Sim with no windows is bit-identical to one predating this file.

// ResourceClass names one simulator resource class for capacity
// scaling. The classes mirror the engine's internal resource kinds.
type ResourceClass int

// The scalable resource classes.
const (
	// ResSM is a GPU's streaming-multiprocessor throughput.
	ResSM ResourceClass = iota
	// ResMemBW is a GPU's DRAM bandwidth.
	ResMemBW
	// ResLinkOut is a GPU's egress NVLink bandwidth.
	ResLinkOut
	// ResLinkIn is a GPU's ingress NVLink bandwidth.
	ResLinkIn
	// ResCopyEngine is a GPU's host-to-device copy engine.
	ResCopyEngine
	// ResHostCPU is the host-wide CPU worker pool (gpu index ignored).
	ResHostCPU
	// ResFabric is one node's inter-node fabric link; the gpu index is
	// the *node* index. It exists only when SetTopology installed a
	// multi-node topology — windows on it fail otherwise.
	ResFabric
)

// String returns the class name.
func (rc ResourceClass) String() string {
	switch rc {
	case ResSM:
		return "sm"
	case ResMemBW:
		return "membw"
	case ResLinkOut:
		return "link-out"
	case ResLinkIn:
		return "link-in"
	case ResCopyEngine:
		return "copy"
	case ResHostCPU:
		return "hostcpu"
	case ResFabric:
		return "fabric"
	default:
		return fmt.Sprintf("resource(%d)", int(rc))
	}
}

// kind maps the public class to the engine's internal resource kind.
func (rc ResourceClass) kind() (resKind, bool) {
	switch rc {
	case ResSM:
		return resSM, true
	case ResMemBW:
		return resBW, true
	case ResLinkOut:
		return resLinkOut, true
	case ResLinkIn:
		return resLinkIn, true
	case ResCopyEngine:
		return resCopy, true
	case ResHostCPU:
		return resCPU, true
	case ResFabric:
		return resFabric, true
	default:
		return 0, false
	}
}

// capWindow is one stored capacity-scaling window.
type capWindow struct {
	kind   resKind
	gpu    int // 0 for host-wide resources
	t0, t1 float64
	scale  float64
}

// AddCapacityWindow scales the capacity of one resource by scale (in
// [0,1]) during [t0, t1) µs of simulated time. The gpu index is
// ignored for ResHostCPU. Windows may be added at any point before Run.
//
// Degenerate inputs have defined semantics rather than undefined
// engine behavior:
//
//   - A negative t0 is clamped to 0 (the simulation starts at 0).
//   - Zero-length (t0 == t1) and inverted (t1 < t0) windows are
//     rejected with an error, as is any NaN endpoint (the `!(t1 > t0)`
//     form is deliberate: NaN fails every comparison).
//   - A NaN, negative, or >1 scale is rejected; scale 1.0 is accepted
//     and provably inert (it compiles to no step events at all).
//   - Overlapping windows on the same (resource, GPU) multiply, in
//     insertion order, with the product clamped to [0,1]. The product
//     is evaluated when windows are compiled to the step function,
//     before the engine runs.
func (s *Sim) AddCapacityWindow(rc ResourceClass, gpu int, t0, t1, scale float64) error {
	kind, ok := rc.kind()
	if !ok {
		return fmt.Errorf("gpusim: unknown resource class %d", int(rc))
	}
	switch kind {
	case resCPU:
		gpu = 0
	case resFabric:
		if s.numFabric == 0 {
			return fmt.Errorf("gpusim: capacity window on %v: no inter-node fabric (topology absent or flat)", rc)
		}
		if gpu < 0 || gpu >= s.numFabric {
			return fmt.Errorf("gpusim: capacity window on %v: node %d out of range [0,%d)", rc, gpu, s.numFabric)
		}
	default:
		if gpu < 0 || gpu >= s.cfg.NumGPUs {
			return fmt.Errorf("gpusim: capacity window on %v: gpu %d out of range [0,%d)", rc, gpu, s.cfg.NumGPUs)
		}
	}
	if t0 < 0 {
		t0 = 0
	}
	if !(t1 > t0) {
		return fmt.Errorf("gpusim: capacity window on %v gpu %d: empty interval [%g,%g)", rc, gpu, t0, t1)
	}
	if !(scale >= 0 && scale <= 1) {
		return fmt.Errorf("gpusim: capacity window on %v gpu %d: scale %g outside [0,1]", rc, gpu, scale)
	}
	s.capWindows = append(s.capWindows, capWindow{kind: kind, gpu: gpu, t0: t0, t1: t1, scale: scale})
	return nil
}

// InjectStragglers multiplies the remaining work of a deterministic,
// seed-selected subset of kernels by factor (> 1 inflates; the
// selection draws one uniform variate per kernel op in op-id order, so
// the same seed on the same DAG always picks the same kernels). It must
// be called after the DAG is fully built and before Run; only ops added
// via AddKernel are eligible. factor must be positive and finite.
// Returns the number of kernels inflated.
func (s *Sim) InjectStragglers(seed int64, prob, factor float64) (int, error) {
	if s.ran {
		return 0, fmt.Errorf("gpusim: InjectStragglers after Run")
	}
	if !(prob >= 0 && prob <= 1) {
		return 0, fmt.Errorf("gpusim: straggler probability %g outside [0,1]", prob)
	}
	if !(factor > 0) || math.IsInf(factor, 1) {
		return 0, fmt.Errorf("gpusim: straggler factor %g must be positive and finite", factor)
	}
	if prob <= 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, o := range s.ops {
		if !o.isKernel {
			continue
		}
		if rng.Float64() < prob {
			o.workLeft *= factor
			n++
		}
	}
	return n, nil
}

// capChange is one resource's new capacity taking effect at a boundary.
type capChange struct {
	idx int32
	cap float64
}

// capEvent groups the capacity changes taking effect at one instant.
type capEvent struct {
	t       float64
	changes []capChange
}

// resIndex is the dense resource index shared by the engine and the
// reference implementation: kind-major for the per-GPU kinds (host CPU
// slot last), with per-node fabric links appended after it (for
// resFabric the gpu argument is the node index).
func resIndex(kind resKind, gpu, numGPUs int) int32 {
	if kind == resFabric {
		return int32(numResKinds*numGPUs - (numGPUs - 1) + gpu)
	}
	return int32(int(kind)*numGPUs + gpu)
}

// compileCapWindows flattens a Sim's capacity windows into the initial
// per-resource capacities (dense kind-major layout) and a time-ordered
// list of step events. A change event is emitted only when a resource's
// value actually changes, so scale-1.0 windows — and a window-free Sim —
// produce no events at all and cannot perturb the event loop's float
// trajectory. The construction is fully deterministic: windows are
// scanned in insertion order, boundaries sorted by (time, resource).
func compileCapWindows(s *Sim) (caps []float64, events []capEvent) {
	g := s.cfg.NumGPUs
	baseRes := numResKinds*g - (g - 1)
	numRes := baseRes + s.numFabric
	caps = make([]float64, numRes)
	for i := range caps {
		caps[i] = 1
	}
	// Fabric oversubscription is a permanent capacity reduction seeded
	// here: each fabric link starts at 1/Oversub, and any window on it
	// scales that base multiplicatively. With no fabric resources this
	// loop is empty and the array is exactly the pre-topology one.
	for i := baseRes; i < numRes; i++ {
		caps[i] = s.fabricCap
	}
	if len(s.capWindows) == 0 {
		return caps, nil
	}
	base := func(idx int32) float64 {
		if int(idx) >= baseRes {
			return s.fabricCap
		}
		return 1
	}

	// Group windows per dense resource index (slice-indexed: no map
	// iteration anywhere near the deterministic path).
	perRes := make([][]capWindow, numRes)
	for _, w := range s.capWindows {
		idx := resIndex(w.kind, w.gpu, g)
		perRes[idx] = append(perRes[idx], w)
	}

	// valueAt is the product of all scales active at time t, clamped to
	// [0,1]; multiplication runs in insertion order.
	valueAt := func(ws []capWindow, t float64) float64 {
		v := 1.0
		for _, w := range ws {
			if w.t0 <= t && t < w.t1 {
				v *= w.scale
			}
		}
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		return v
	}

	type change struct {
		t   float64
		idx int32
		cap float64
	}
	var changes []change
	for idx := int32(0); int(idx) < numRes; idx++ {
		ws := perRes[idx]
		if len(ws) == 0 {
			continue
		}
		// Boundary times of this resource, sorted and deduplicated.
		ts := make([]float64, 0, 2*len(ws))
		for _, w := range ws {
			ts = append(ts, w.t0, w.t1)
		}
		sort.Float64s(ts)
		prev := valueAt(ws, 0)
		caps[idx] = base(idx) * prev
		for i, t := range ts {
			//lint:ignore floateq exact dedup of sorted boundary times
			if t <= 0 || (i > 0 && t == ts[i-1]) {
				continue
			}
			v := valueAt(ws, t)
			//lint:ignore floateq step emission requires exact value-change detection
			if v == prev {
				continue
			}
			changes = append(changes, change{t: t, idx: idx, cap: base(idx) * v})
			prev = v
		}
	}
	if len(changes) == 0 {
		return caps, nil
	}
	sort.Slice(changes, func(i, j int) bool {
		if changes[i].t != changes[j].t { //lint:ignore floateq exact grouping of identical boundary instants
			return changes[i].t < changes[j].t
		}
		return changes[i].idx < changes[j].idx
	})
	for _, c := range changes {
		//lint:ignore floateq exact grouping of identical boundary instants
		if n := len(events); n > 0 && events[n-1].t == c.t {
			events[n-1].changes = append(events[n-1].changes, capChange{idx: c.idx, cap: c.cap})
			continue
		}
		events = append(events, capEvent{t: c.t, changes: []capChange{{idx: c.idx, cap: c.cap}}})
	}
	return caps, events
}

// HasPerturbations reports whether the Sim carries any capacity window.
func (s *Sim) HasPerturbations() bool { return len(s.capWindows) > 0 }
