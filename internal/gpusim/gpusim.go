// Package gpusim is a discrete-event simulator of a multi-GPU training
// node. It stands in for the 8×A100 DGX machine the RAP paper evaluates
// on (see DESIGN.md, substitution table).
//
// The model is deliberately simple but captures exactly the mechanics the
// RAP scheduler exploits:
//
//   - Every GPU exposes two shared resources, SM throughput and DRAM
//     bandwidth, each with capacity 1.0. A kernel declares a demand in
//     [0,1] for each; running alone it executes its Work (µs of solo
//     time) at speed 1 after a fixed launch overhead.
//   - Kernels co-running on a GPU contend: when the aggregate demand on
//     a resource exceeds its capacity, every kernel using that resource
//     is slowed by the oversubscription factor (fair sharing, as under
//     MPS) or by leftover capacity only (priority/space sharing, as with
//     CUDA stream priorities). A kernel's speed is the minimum across
//     the resources it touches — so a bandwidth-bound embedding stage and
//     a compute-light preprocessing kernel overlap for free, while two
//     compute-heavy kernels stretch each other, reproducing Figure 1(c).
//   - Inter-GPU communication occupies per-GPU link-in/link-out
//     resources; host-to-device copies occupy a per-GPU copy engine; CPU
//     preprocessing occupies a host CPU pool. These make data-preparation
//     interleaving (§6.3) and the CPU baseline observable in timelines.
//
// Ops form a DAG (explicit dependencies plus implicit per-stream
// serialization) and the engine advances time event-by-event, recording
// per-op start/end and, when ClusterConfig.Timelines asks for them,
// utilization segments: SM and DRAM bandwidth per GPU, CPU for the host
// pool.
package gpusim

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"rap/internal/topo"
)

// Time values are microseconds throughout the simulator.

// DefaultLaunchOverhead is the fixed kernel-launch latency in µs applied
// when a Kernel does not set its own. It is the per-kernel cost that
// horizontal fusion amortizes (§2.3 of the paper: "sequentially invoking
// small input preprocessing kernels ... significant kernel launching
// overhead").
const DefaultLaunchOverhead = 5.0 //rap:unit us

// Demand is a kernel's maximum usable fraction of each GPU resource.
type Demand struct {
	SM    float64 // fraction of SM throughput, [0,1]
	MemBW float64 // fraction of DRAM bandwidth, [0,1]
}

// Clamp returns the demand with both fields clipped to [0,1].
func (d Demand) Clamp() Demand {
	c := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	return Demand{SM: c(d.SM), MemBW: c(d.MemBW)}
}

// Kernel describes one GPU kernel for the simulator.
type Kernel struct {
	Name string
	// Work is the kernel's solo execution time in µs, excluding launch
	// overhead. Under contention the effective time is Work/speed.
	Work   float64 //rap:unit us
	Demand Demand
	// Warps is informational (it drives demand models upstream and the
	// Figure 5(c) study); the engine itself only uses Demand.
	Warps int
	// LaunchOverhead, if zero, defaults to DefaultLaunchOverhead. The
	// overhead phase is host-side and does not contend for GPU resources.
	LaunchOverhead float64 //rap:unit us
	// Tag names the kernel's row in Chrome traces ("train",
	// "preproc", ...); the engine does not read it.
	Tag string
}

// overhead resolves the kernel's effective launch overhead.
//
//rap:unit return us
func (k Kernel) overhead() float64 {
	if k.LaunchOverhead > 0 {
		return k.LaunchOverhead
	}
	if k.LaunchOverhead < 0 {
		return 0
	}
	return DefaultLaunchOverhead
}

// SoloLatency returns the kernel's uncontended latency.
//
//rap:unit return us
func (k Kernel) SoloLatency() float64 { return k.overhead() + k.Work }

// SharePolicy selects how co-running kernels split an oversubscribed
// resource.
type SharePolicy int

const (
	// FairShare slows every user of an oversubscribed resource by the
	// same factor (proportional sharing, the MPS-like behaviour).
	FairShare SharePolicy = iota
	// PrioritySpace grants higher-priority ops their full demand first;
	// lower priorities share the leftover (CUDA stream priorities).
	PrioritySpace
)

// String returns the policy name.
func (p SharePolicy) String() string {
	switch p {
	case FairShare:
		return "fair-share"
	case PrioritySpace:
		return "priority-space"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ClusterConfig sizes the simulated node.
type ClusterConfig struct {
	NumGPUs int
	// LinkGBs is the per-GPU NVLink bandwidth in GB/s (default 300,
	// NVSwitch-class).
	LinkGBs float64 //rap:unit GB/s
	// CopyGBs is the per-GPU host-to-device copy bandwidth in GB/s
	// (default 25, PCIe 4-class).
	CopyGBs float64 //rap:unit GB/s
	// DramGBs is the per-GPU DRAM bandwidth in GB/s used to charge
	// device-local copies (default 1555, A100 HBM2-class). Kernel MemBW
	// demands stay fractional; this converts same-GPU transfer bytes
	// into occupancy time on that fraction scale.
	DramGBs float64 //rap:unit GB/s
	// HostCores is the size of the host CPU pool available to CPU ops,
	// expressed as schedulable workers (default 64).
	HostCores int
	Policy    SharePolicy
	// Timelines makes Run record the utilization timelines
	// (Result.Util and Result.HostUtil). Off by default: op times,
	// Makespan and Events do not depend on it, and only the
	// utilization, Table 4 and power studies read the timelines.
	Timelines bool
	// EndTimesOnly makes a Sim keep only what op times need: it stores
	// no op names or tags, and Run leaves Result.Ops nil (OpByID then
	// returns the zero OpResult); read an op's end through Sim.OpEnd.
	// Op times, Makespan, Events and the timelines are the same bits
	// either way. Errors identify an op by its index ("op #3") instead
	// of its name. Only such a Sim can Stamp. Off by default; the fleet
	// simulator, which reads only makespans and iteration ends, sets it.
	EndTimesOnly bool
}

// WithDefaults returns the config with non-positive fields replaced by
// their defaults (the same normalization NewSim applies). A −Inf
// bandwidth is kept, like NaN and +Inf, so Validate still reports it.
func (c ClusterConfig) WithDefaults() ClusterConfig {
	if c.NumGPUs <= 0 {
		c.NumGPUs = 1
	}
	c.LinkGBs = defaultGBs(c.LinkGBs, 300)
	c.CopyGBs = defaultGBs(c.CopyGBs, 25)
	c.DramGBs = defaultGBs(c.DramGBs, 1555)
	if c.HostCores <= 0 {
		c.HostCores = 64
	}
	return c
}

func defaultGBs(v, def float64) float64 {
	if v <= 0 && !math.IsInf(v, -1) {
		return def
	}
	return v
}

// Validate rejects a NaN or infinite bandwidth and more GPUs than an
// op record's int16 GPU index holds. Transfer work is bytes divided by
// a bandwidth, so a NaN bandwidth makes work that never drains and Run
// would never return; an infinite one is no more a physical link.
func (c ClusterConfig) Validate() error {
	if c.NumGPUs > math.MaxInt16 {
		return fmt.Errorf("gpusim: cluster of %d GPUs exceeds the %d an op record addresses", c.NumGPUs, math.MaxInt16)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"LinkGBs", c.LinkGBs}, {"CopyGBs", c.CopyGBs}, {"DramGBs", c.DramGBs}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("gpusim: cluster %s %g is not finite", f.name, f.v)
		}
	}
	return nil
}

// resKind enumerates the resource classes of the cluster.
type resKind uint8

const (
	resSM resKind = iota
	resBW
	resLinkOut
	resLinkIn
	resCopy
	resCPU // host-wide; gpu index ignored
)

// numResKinds counts the kind-major resource classes; resCPU must stay
// last (the engine lays resources out as kind-major dense arrays, with
// the single host-wide CPU slot at the end).
const numResKinds = int(resCPU) + 1

// resFabric is the per-node inter-node fabric link. It sits outside the
// kind-major layout: fabric resources are one per *node*, not per GPU,
// and occupy dense indices after the host-CPU slot — zero of them exist
// unless SetTopology installed a multi-node topology, which is what
// keeps flat/nil-topology simulations bit-identical to the layout that
// predates hierarchical topologies.
const resFabric = resKind(numResKinds)

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

// rtDemand is one (resource, demand) requirement of an op, resolved to
// its dense resource index when the op is added. An op has at most four.
type rtDemand struct {
	dem  float64
	idx  int32
	kind resKind
}

// OpID identifies an op added to a Sim.
type OpID int

// opState is the lifecycle of an op inside the engine.
type opState uint8

const (
	opPending opState = iota
	opLaunching
	opRunning
	opDone
)

// op is one op of the store, a 32-byte record. It holds no pointer
// (TestOpStorePointerFree pins that), so Sim.ops is a flat array the
// garbage collector never scans: the op's demands are the span
// dems[demOff:demOff+demN] of the Sim's demand slice, its dependencies
// a span of the Sim's dependency slice (see Sim.depSpan), and its name
// and tag sit at the op's index in Sim.names and Sim.tags (unless the
// Sim keeps none, see ClusterConfig.EndTimesOnly). Two fields hold one
// value until a point of the op's life and another after it, and its
// start time is not stored at all (Run keeps start times only for a
// Sim that keeps names); TestOpRecordSize pins the size.
type op struct {
	workLeft float64
	// launchSpeedEnd is the op's launch overhead left until it enters
	// its work phase, its work-phase speed (maintained by the engine)
	// while it runs, and its end time once it is done.
	launchSpeedEnd float64
	// seq counts the op's unfinished dependencies until it starts, and
	// from then on holds its position in engine start order; the engine
	// keeps per-resource user lists sorted by it so that incremental
	// factor recomputation sums loads in exactly the order the original
	// full-rescan implementation did (bit-identical results).
	seq      int32
	demOff   int32
	priority int32
	gpu      int16 // -1 for host-only ops
	state    opState
	demN     uint8
}

// demandsIn returns o's demands within the store's demand slice.
func (o *op) demandsIn(dems []rtDemand) []rtDemand {
	return dems[o.demOff : o.demOff+int32(o.demN)]
}

// OpResult reports one finished op.
type OpResult struct {
	ID    OpID
	Name  string
	Tag   string
	GPU   int
	Start float64 //rap:unit us
	End   float64 //rap:unit us
}

// Latency is the op's wall time.
//
//rap:unit return us
func (r OpResult) Latency() float64 { return r.End - r.Start }

// UtilSegment is a span of time with constant per-GPU utilization.
type UtilSegment struct {
	Start, End float64 //rap:unit us
	SM, MemBW  float64 // granted utilization in [0,1]
}

// Result is the outcome of Sim.Run.
type Result struct {
	// Ops[i] is op i's result. It is nil when the cluster config set
	// EndTimesOnly; Sim.OpEnd then reads an op's end.
	Ops      []OpResult
	Makespan float64 //rap:unit us
	// Util[g] is the utilization timeline of GPU g. It is nil unless
	// the cluster config set Timelines; AvgUtil, BusyFraction,
	// UtilSeries and trace.Summarize then read zero, and Energy
	// charges no GPU energy.
	Util [][]UtilSegment
	// HostUtil is the host CPU pool's utilization timeline, nil unless
	// the cluster config set Timelines (Energy then charges only the
	// host's idle draw).
	HostUtil []HostSegment
	// Events counts the simulated event-loop iterations; it normalizes
	// benchmark times to ns/event.
	Events int
}

// OpByID returns the result of op id. An out-of-range id, or any id
// of a run that kept no op results (ClusterConfig.EndTimesOnly),
// yields the zero OpResult (same defined-zero behavior as AvgUtil/
// UtilSeries/BusyFraction on out-of-range GPUs).
func (r *Result) OpByID(id OpID) OpResult {
	if int(id) < 0 || int(id) >= len(r.Ops) {
		return OpResult{}
	}
	return r.Ops[int(id)]
}

// AvgUtil returns the time-weighted mean SM and bandwidth utilization of
// GPU g over [0, upTo]; upTo <= 0 means the whole makespan. An
// out-of-range g yields zeros.
func (r *Result) AvgUtil(g int, upTo float64) (sm, bw float64) {
	if g < 0 || g >= len(r.Util) {
		return 0, 0
	}
	if upTo <= 0 {
		upTo = r.Makespan
	}
	if upTo <= 0 {
		return 0, 0
	}
	var smArea, bwArea float64
	for _, seg := range r.Util[g] {
		s, e := seg.Start, seg.End
		if s >= upTo {
			break
		}
		if e > upTo {
			e = upTo
		}
		smArea += seg.SM * (e - s)
		bwArea += seg.MemBW * (e - s)
	}
	return smArea / upTo, bwArea / upTo
}

// Sample is one point of a resampled utilization series.
type Sample struct {
	T         float64
	SM, MemBW float64
}

// maxUtilSamples caps the length of a UtilSeries (24 MiB of samples),
// far above any plotted trace; without it a tiny positive period
// overflows the sample count.
const maxUtilSamples = 1 << 20

// UtilSeries resamples GPU g's utilization at the given period, for
// plotting Figure 1(a)-style traces. An out-of-range g, a period that
// is not positive (including NaN), or one so small that the series
// would exceed maxUtilSamples samples yields nil.
func (r *Result) UtilSeries(g int, dt float64) []Sample {
	if g < 0 || g >= len(r.Util) || !(dt > 0) || r.Makespan <= 0 {
		return nil
	}
	samples := math.Ceil(r.Makespan/dt) + 1
	if !(samples <= maxUtilSamples) {
		return nil
	}
	n := int(samples)
	out := make([]Sample, 0, n)
	segs := r.Util[g]
	si := 0
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		for si < len(segs)-1 && segs[si].End <= t {
			si++
		}
		s := Sample{T: t}
		if si < len(segs) && t >= segs[si].Start && t < segs[si].End {
			s.SM = segs[si].SM
			s.MemBW = segs[si].MemBW
		}
		out = append(out, s)
	}
	return out
}

// Sim accumulates an op DAG and executes it.
type Sim struct {
	cfg ClusterConfig
	// The op store: ops[i] is op i, names[i] and tags[i] its name and
	// tag (both slices stay empty under EndTimesOnly), and dems and
	// deps hold the demands and dependencies of every op an Add* call
	// stored back to back, in op order (see op); the b-th such op's
	// dependencies end at depEnd[b]. An op Stamp copied stores neither:
	// it shares its source's demand span, and stamps derives its
	// dependencies from its source's (see depSpan).
	ops    []op
	names  []string
	tags   []string
	dems   []rtDemand
	deps   []int32
	depEnd []int32
	stamps []stampSpan
	// streams[h] is the last op added to stream h (InvalidOp before the
	// first), for implicit chaining.
	streams []int32
	ran     bool
	// addErr records an invalid config or the first invalid Add* call
	// (e.g. an out-of-range GPU); Run reports it instead of executing. Deferred error
	// reporting keeps the builder surface panic-free, matching the
	// zero-value/error convention of the Result query surface.
	addErr error

	// Hierarchical-topology state, resolved by SetTopology. With no
	// topology (or a flat one) numFabric is 0, no fabric resources
	// exist, and every Add* path is byte-for-byte the pre-topology one.
	topo      *topo.Topology
	numFabric int   // fabric links = nodes; 0 disables fabric charging
	nodeOf    []int // GPU → node (shared read-only with the topology)
	nodeSize  []int // node → GPU count
	// fabricShare is the fabric demand of one full-rate NVLink flow:
	// LinkGBs/FabricGBs. fabricCap is each fabric link's capacity,
	// 1/Oversub; fabricScale[n] (see SetFabricScale) multiplies node n's.
	fabricShare float64
	fabricCap   float64
	fabricScale []float64
}

// NewSim creates a simulator for the given cluster. An invalid config
// (see ClusterConfig.Validate) is recorded like an invalid Add* call:
// Run returns the error instead of executing.
//
//rap:deterministic
func NewSim(cfg ClusterConfig) *Sim {
	return &Sim{cfg: cfg.WithDefaults(), addErr: cfg.Validate()}
}

// Config returns the (defaulted) cluster configuration.
func (s *Sim) Config() ClusterConfig { return s.cfg }

// SetTopology installs a hierarchical topology: GPUs grouped into
// NVSwitch nodes behind an oversubscribed inter-node fabric. Each node
// gets one fabric-link resource; cross-node transfers (AddComm between
// GPUs on different nodes) and the cross-node share of collectives
// (AddLinkBusy) charge it in addition to the endpoints' NVLink in/out.
// One full-rate NVLink flow demands LinkGBs/FabricGBs of a link whose
// capacity is 1/Oversub; SetFabricScale multiplies that capacity per
// node. Installing a topology clears the fabric scales.
//
// Because fabric demands are resolved at add time, SetTopology must
// precede every Add* call whenever fabric links are involved — that is,
// whenever the old or new topology has more than one node. A nil or
// single-node (flat) topology creates no fabric resources and leaves
// the simulation bit-identical to one that predates topologies — pinned
// by the golden back-compat suite — so installing one is legal at any
// point before Run.
func (s *Sim) SetTopology(t *topo.Topology) error {
	if s.ran {
		return fmt.Errorf("gpusim: SetTopology after Run")
	}
	if len(s.ops) > 0 && (s.numFabric > 0 || (t != nil && t.NumNodes() > 1)) {
		return fmt.Errorf("gpusim: SetTopology after ops were added (a multi-node topology must be set before the first Add call)")
	}
	s.topo, s.numFabric, s.nodeOf, s.nodeSize = nil, 0, nil, nil
	s.fabricShare, s.fabricCap, s.fabricScale = 0, 0, nil
	if t == nil {
		return nil
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if t.NumGPUs() != s.cfg.NumGPUs {
		return fmt.Errorf("gpusim: topology has %d GPUs, cluster %d", t.NumGPUs(), s.cfg.NumGPUs)
	}
	s.topo = t
	if t.NumNodes() <= 1 {
		return nil // flat: no fabric links, identical to no topology
	}
	s.numFabric = t.NumNodes()
	s.nodeOf = make([]int, s.cfg.NumGPUs)
	s.nodeSize = make([]int, s.numFabric)
	for g := range s.nodeOf {
		n := t.NodeOf(g)
		s.nodeOf[g] = n
		s.nodeSize[n]++
	}
	fabricGBs := t.FabricGBs
	if fabricGBs <= 0 {
		fabricGBs = s.cfg.LinkGBs
	}
	s.fabricShare = s.cfg.LinkGBs / fabricGBs
	oversub := t.Oversub
	if oversub < 1 {
		oversub = 1
	}
	s.fabricCap = 1 / oversub
	return nil
}

// SetFabricScale sets each node's remaining fabric capacity for the
// whole run: node n's link serves scale[n]/Oversub instead of 1/Oversub,
// which models co-tenant traffic on a shared fabric. Every entry must
// lie in (0,1]; nodes past the end of scale keep the full link, and a
// nil scale clears it. A scale below 1 needs the fabric links of a
// multi-node topology, so SetTopology must come first. The scale is
// read when Run seeds capacities, so it may be set at any point before.
func (s *Sim) SetFabricScale(scale []float64) error {
	if s.ran {
		return fmt.Errorf("gpusim: SetFabricScale after Run")
	}
	nodes := max(s.numFabric, 1)
	if len(scale) > nodes {
		return fmt.Errorf("gpusim: %d fabric scales for %d topology nodes", len(scale), nodes)
	}
	for n, v := range scale {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("gpusim: fabric scale %g of node %d outside (0,1]", v, n)
		}
		if v < 1 && s.numFabric == 0 {
			return fmt.Errorf("gpusim: fabric scale %g of node %d: no inter-node fabric (topology absent or flat)", v, n)
		}
	}
	s.fabricScale = append([]float64(nil), scale...)
	return nil
}

// Grow makes room for ops more ops added by Add* calls, holding
// demands demands and deps dependencies between them, and stamped more
// ops copied by Stamp, so that adding them moves no storage. A caller
// that knows its DAG's size sizes the store once instead of letting it
// grow by doubling. A non-positive size reserves nothing.
func (s *Sim) Grow(ops, stamped, demands, deps int) {
	ops, stamped, demands, deps = max(ops, 0), max(stamped, 0), max(demands, 0), max(deps, 0)
	s.ops = slices.Grow(s.ops, ops+stamped)
	if !s.cfg.EndTimesOnly {
		s.names = slices.Grow(s.names, ops)
		s.tags = slices.Grow(s.tags, ops)
	}
	s.depEnd = slices.Grow(s.depEnd, ops)
	s.dems = slices.Grow(s.dems, demands)
	s.deps = slices.Grow(s.deps, deps)
}

// Stream is a handle of one stream of a Sim (see NewStream).
type Stream int32

// NewStream returns a new stream of the Sim. Streams model CUDA streams:
// ops added WithStream of one stream run in FIFO order, ops of
// different streams concurrently.
func (s *Sim) NewStream() Stream {
	s.streams = append(s.streams, int32(InvalidOp))
	return Stream(len(s.streams) - 1)
}

// OpOption customizes an op at add time. It applies to the op being
// added, the last one in the store.
type OpOption func(*Sim)

// WithDeps makes the op wait for the given ops. The ids are copied when
// the op is added: the caller may reuse or modify the slice afterwards.
func WithDeps(ids ...OpID) OpOption {
	return func(s *Sim) {
		for _, d := range ids {
			if int(int32(d)) != int(d) {
				s.fail(fmt.Errorf("gpusim: op %s depends on unknown op %d", s.opLabel(len(s.ops)-1), d))
				return
			}
			s.deps = append(s.deps, int32(d))
		}
	}
}

// WithStream serializes the op after the previous op added to stream h,
// which must be a stream of this Sim.
func WithStream(h Stream) OpOption {
	return func(s *Sim) {
		if h < 0 || int(h) >= len(s.streams) {
			s.fail(fmt.Errorf("gpusim: op %s: unknown stream %d", s.opLabel(len(s.ops)-1), h))
			return
		}
		if last := s.streams[h]; last >= 0 {
			s.deps = append(s.deps, last)
		}
		s.streams[h] = int32(len(s.ops) - 1)
	}
}

// WithPriority sets the op's priority for PrioritySpace sharing; higher
// wins. Default 0. It must fit in an int32.
func WithPriority(p int) OpOption {
	return func(s *Sim) {
		if int(int32(p)) != p {
			s.fail(fmt.Errorf("gpusim: op %s: priority %d out of range", s.opLabel(len(s.ops)-1), p))
			return
		}
		s.ops[len(s.ops)-1].priority = int32(p)
	}
}

// WithTag overrides the op's tag, which names its Chrome-trace row.
// A Sim that keeps no tags (ClusterConfig.EndTimesOnly) ignores it.
func WithTag(tag string) OpOption {
	return func(s *Sim) {
		if !s.cfg.EndTimesOnly {
			s.tags[len(s.tags)-1] = tag
		}
	}
}

// push appends an op without demands or dependencies to the store;
// demand adds its demands, then add applies its options.
//
//rap:unit overhead us
//rap:unit work us
func (s *Sim) push(name, tag string, gpu int, overhead, work float64) {
	s.ops = append(s.ops, op{
		launchSpeedEnd: overhead,
		workLeft:       work,
		gpu:            int16(gpu),
		demOff:         int32(len(s.dems)),
	})
	if !s.cfg.EndTimesOnly {
		s.names = append(s.names, name)
		s.tags = append(s.tags, tag)
	}
}

// demand adds a demand of val on resource (kind, gpu) to the last op;
// for resFabric, gpu is the node index.
func (s *Sim) demand(kind resKind, gpu int, val float64) {
	s.dems = append(s.dems, rtDemand{dem: val, idx: resIndex(kind, gpu, s.cfg.NumGPUs), kind: kind})
	s.ops[len(s.ops)-1].demN++
}

// add applies the options to the last op, whose dependencies they
// append to deps, and returns its id — InvalidOp if an option failed.
func (s *Sim) add(opts []OpOption) OpID {
	ok := s.addErr == nil
	for _, f := range opts {
		f(s)
	}
	s.depEnd = append(s.depEnd, int32(len(s.deps)))
	if ok && s.addErr != nil {
		return InvalidOp
	}
	return OpID(len(s.ops) - 1)
}

// stampSpan is a run of ops Stamp copied: op i of [first, end) is a
// copy of op i-shift. Consecutive stamps of one size share a span.
type stampSpan struct {
	first, end, shift int32
}

// depSpan returns op i's dependencies as a stored span and the shift
// to add to each: an op an Add* call stored has its own span and shift
// 0, and a stamped op that of the built op it copies, through every
// stamp in between, shifted by the distance to it.
func (s *Sim) depSpan(i int) ([]int32, int32) {
	src := int32(i)
	k := len(s.stamps) - 1
	for ; k >= 0 && s.stamps[k].first > src; k-- {
	}
	for ; k >= 0; k-- {
		sp := s.stamps[k]
		if src >= sp.end {
			break
		}
		if src >= sp.first {
			src = sp.first - sp.shift + (src-sp.first)%sp.shift
		}
	}
	// src is a built op; the ops of the spans before it are stamped.
	b := src
	for _, sp := range s.stamps[:k+1] {
		b -= sp.end - sp.first
	}
	lo := int32(0)
	if b > 0 {
		lo = s.depEnd[b-1]
	}
	return s.deps[lo:s.depEnd[b]], int32(i) - src
}

// opLabel identifies stored op i in an error: its quoted name, or
// "#i" when the Sim keeps no names (ClusterConfig.EndTimesOnly).
func (s *Sim) opLabel(i int) string {
	if s.cfg.EndTimesOnly {
		return "#" + strconv.Itoa(i)
	}
	return strconv.Quote(s.names[i])
}

// nextLabel is opLabel of the op about to be stored under name.
func (s *Sim) nextLabel(name string) string {
	if s.cfg.EndTimesOnly {
		return "#" + strconv.Itoa(len(s.ops))
	}
	return strconv.Quote(name)
}

// OpEnd returns the end time of op id after Run, in either recording
// mode; it is the one op time a Sim under ClusterConfig.EndTimesOnly
// reports. Before Run, for an out-of-range id, or for an op a failed
// Run left unfinished, it is 0.
//
//rap:unit return us
func (s *Sim) OpEnd(id OpID) float64 {
	if !s.ran || id < 0 || int(id) >= len(s.ops) || s.ops[id].state != opDone {
		return 0
	}
	return s.ops[id].launchSpeedEnd
}

// fail records err as the Sim's add error unless one is recorded.
func (s *Sim) fail(err error) {
	if s.addErr == nil {
		s.addErr = err
	}
}

// InvalidOp is the OpID returned by Add* calls rejected at add time
// (e.g. an out-of-range GPU). It is never a valid dependency: a Run on
// a Sim that recorded an invalid add reports the add error. Add* and
// Stamp calls after Run return it too, and leave the finished Sim as
// it was.
const InvalidOp = OpID(-1)

// checkGPU validates a GPU index at add time, with the same message
// for every op kind. Validating at add time turns what used to be an
// unrelated slice-bounds panic deep inside the engine into an
// immediate, attributable error; the error is deferred to Run (the
// builder methods keep their fluent OpID signatures) and the offending
// call returns InvalidOp.
func (s *Sim) checkGPU(g int) bool {
	if g < 0 || g >= s.cfg.NumGPUs {
		s.fail(fmt.Errorf("gpusim: gpu %d out of range [0,%d)", g, s.cfg.NumGPUs))
		return false
	}
	return true
}

// checkFinite validates an op's launch overhead or work at add time,
// deferring the error like checkGPU. A NaN or infinite amount never
// drains below timeEps, so the engine would loop forever on it.
func (s *Sim) checkFinite(name, what string, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.fail(fmt.Errorf("gpusim: op %s: %s %g is not finite", s.nextLabel(name), what, v))
		return false
	}
	return true
}

// checkDemand rejects a NaN kernel demand at add time, deferring the
// error like checkGPU. Clamp passes NaN through, and a NaN demand would
// fail every "> 0" test and let the kernel run uncontended. An infinite
// demand clamps like any other out-of-range one.
func (s *Sim) checkDemand(name string, d Demand) bool {
	if math.IsNaN(d.SM) || math.IsNaN(d.MemBW) {
		what := "SM"
		if !math.IsNaN(d.SM) {
			what = "MemBW"
		}
		s.fail(fmt.Errorf("gpusim: op %s: %s demand is NaN", s.nextLabel(name), what))
		return false
	}
	return true
}

// AddKernel schedules a GPU kernel on gpu. A non-finite Work or
// LaunchOverhead, or a NaN demand, is rejected like an out-of-range GPU.
func (s *Sim) AddKernel(gpu int, k Kernel, opts ...OpOption) OpID {
	if s.ran || !s.checkGPU(gpu) || !s.checkFinite(k.Name, "work", k.Work) ||
		!s.checkFinite(k.Name, "launch overhead", k.LaunchOverhead) || !s.checkDemand(k.Name, k.Demand) {
		return InvalidOp
	}
	d := k.Demand.Clamp()
	s.push(k.Name, k.Tag, gpu, k.overhead(), math.Max(k.Work, 0))
	if d.SM > 0 {
		s.demand(resSM, gpu, d.SM)
	}
	if d.MemBW > 0 {
		s.demand(resBW, gpu, d.MemBW)
	}
	return s.add(opts)
}

// AddComm schedules a point-to-point transfer of bytes from GPU src to
// GPU dst over the NVLink fabric. Non-finite bytes are rejected. Kept as
// a fixture for trace's tests and this package's golden DAGs.
func (s *Sim) AddComm(name string, src, dst int, bytes float64, opts ...OpOption) OpID {
	if s.ran || !s.checkGPU(src) || !s.checkGPU(dst) || !s.checkFinite(name, "bytes", bytes) {
		return InvalidOp
	}
	if src == dst {
		// Device-local "transfer": a D2D copy through DRAM, charged at
		// the GPU's memory bandwidth and contending with kernels for it.
		// (It used to be a flat 0.5 µs regardless of size, which made
		// data-locality mappings unrealistically free; 0.5 µs remains as
		// the copy-launch latency floor.)
		work := bytes / (s.cfg.DramGBs * 1e3)
		if work < 0.5 {
			work = 0.5
		}
		s.push(name, "comm", src, 0, work)
		s.demand(resBW, src, 1)
		return s.add(opts)
	}
	s.push(name, "comm", src, 0, bytes/(s.cfg.LinkGBs*1e3)) // µs at full link speed
	s.demand(resLinkOut, src, 1)
	s.demand(resLinkIn, dst, 1)
	// A cross-node transfer additionally occupies both endpoints' fabric
	// links: it leaves the source node's uplink and enters the
	// destination node's. The demand is the flow's NVLink rate expressed
	// in fabric-link units, so a slower fabric (FabricGBs < LinkGBs)
	// saturates below one flow and slows it even alone.
	if s.numFabric > 0 && s.nodeOf[src] != s.nodeOf[dst] {
		s.demand(resFabric, s.nodeOf[src], s.fabricShare)
		s.demand(resFabric, s.nodeOf[dst], s.fabricShare)
	}
	return s.add(opts)
}

// AddLinkBusy schedules an op that occupies GPU g's links for the time a
// collective of the given per-GPU byte volume would take. Collectives
// (all-to-all, all-reduce) are expressed as one such op per participant.
// Non-finite bytes are rejected.
func (s *Sim) AddLinkBusy(name string, g int, bytes float64, opts ...OpOption) OpID {
	if s.ran || !s.checkGPU(g) || !s.checkFinite(name, "bytes", bytes) {
		return InvalidOp
	}
	s.push(name, "comm", g, 0, bytes/(s.cfg.LinkGBs*1e3))
	s.demand(resLinkOut, g, 1)
	s.demand(resLinkIn, g, 1)
	// Under a multi-node topology a collective participant's traffic is
	// partly cross-node: with all-to-all-style uniform peering, the
	// fraction of g's peers outside its node is (N−k)/(N−1) for a node
	// of k GPUs. That share of the flow transits g's node fabric link.
	if s.numFabric > 0 && s.cfg.NumGPUs > 1 {
		node := s.nodeOf[g]
		frac := float64(s.cfg.NumGPUs-s.nodeSize[node]) / float64(s.cfg.NumGPUs-1)
		if frac > 0 {
			s.demand(resFabric, node, frac*s.fabricShare)
		}
	}
	return s.add(opts)
}

// AddHostCopy schedules a host-to-device copy of bytes onto GPU g's copy
// engine (the data-preparation transfer of §6.3). Non-finite bytes are
// rejected.
func (s *Sim) AddHostCopy(name string, g int, bytes float64, opts ...OpOption) OpID {
	if s.ran || !s.checkGPU(g) || !s.checkFinite(name, "bytes", bytes) {
		return InvalidOp
	}
	s.push(name, "hostcopy", g, 0, bytes/(s.cfg.CopyGBs*1e3))
	s.demand(resCopy, g, 1)
	return s.add(opts)
}

// AddCPU schedules host-side work taking micros µs on `workers` CPU
// workers out of the host pool. Non-finite micros are rejected.
func (s *Sim) AddCPU(name string, micros float64, workers int, opts ...OpOption) OpID {
	if s.ran || !s.checkFinite(name, "micros", micros) {
		return InvalidOp
	}
	if workers < 1 {
		workers = 1
	}
	frac := float64(workers) / float64(s.cfg.HostCores)
	if frac > 1 {
		frac = 1
	}
	s.push(name, "cpu", -1, 0, micros)
	s.demand(resCPU, 0, frac)
	return s.add(opts)
}

// AddBarrier schedules a zero-duration synchronization op.
func (s *Sim) AddBarrier(name string, opts ...OpOption) OpID {
	if s.ran {
		return InvalidOp
	}
	s.push(name, "sync", -1, 0, 0)
	return s.add(opts)
}

// Stamp appends a copy of the last n ops shifted by n: op len−n+j is
// copied to len+j with every dependency d replaced by d+n, and every
// stream whose last op lies among the n advances by n too. The copies
// share their sources' demand spans and store no dependencies: Run
// derives them from their sources' (see depSpan). The result is the
// DAG that adding the n ops again would build when each of them
// depends on ops exactly n earlier than its source does, which is how
// a periodic pipeline's steady iterations repeat. Stamp returns the
// first copy's id.
//
// Only a Sim that keeps no names (ClusterConfig.EndTimesOnly) stamps,
// since names carry their iteration. That, an n outside [1, len], or a
// store that would outgrow int32 ids is recorded as an add error, which
// Run reports, and Stamp returns InvalidOp. After Run it returns
// InvalidOp and records nothing.
func (s *Sim) Stamp(n int) OpID {
	total := len(s.ops)
	switch {
	case s.ran:
		return InvalidOp
	case !s.cfg.EndTimesOnly:
		s.fail(fmt.Errorf("gpusim: Stamp on a Sim that keeps op names"))
		return InvalidOp
	case n < 1 || n > total:
		s.fail(fmt.Errorf("gpusim: Stamp of %d ops from a store of %d", n, total))
		return InvalidOp
	case total > math.MaxInt32-n:
		s.fail(fmt.Errorf("gpusim: Stamp of %d ops overflows the %d ops a Sim holds", n, math.MaxInt32))
		return InvalidOp
	}
	lo, shift := total-n, int32(n)
	s.ops = append(s.ops, s.ops[lo:]...)
	if k := len(s.stamps) - 1; k >= 0 && s.stamps[k].end == int32(total) && s.stamps[k].shift == shift {
		s.stamps[k].end += shift
	} else {
		s.stamps = append(s.stamps, stampSpan{first: int32(total), end: int32(total) + shift, shift: shift})
	}
	for h, last := range s.streams {
		if last >= int32(lo) {
			s.streams[h] = last + shift
		}
	}
	return OpID(total)
}
