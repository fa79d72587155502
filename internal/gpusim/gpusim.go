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
// per-op start/end and per-GPU utilization segments.
package gpusim

import (
	"fmt"
	"math"

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
	// Tag labels the kernel for utilization attribution ("train",
	// "preproc", ...).
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

// Validate rejects a NaN or infinite bandwidth. Transfer work is bytes
// divided by a bandwidth, so a NaN bandwidth makes work that never
// drains and Run would never return; an infinite one is no more a
// physical link.
func (c ClusterConfig) Validate() error {
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
type resKind int

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
// predates hierarchical topologies. For fabric demands the demandSpec
// gpu field holds the node index.
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

// demandSpec is one (resource, demand) requirement of an op. Demands are
// stored as a short slice (at most four entries) rather than a map: the
// engine iterates them on every event, and map traversal plus hashing
// dominated the old hot path.
type demandSpec struct {
	kind resKind
	gpu  int // 0 for host-wide resources
	val  float64
}

// OpID identifies an op added to a Sim.
type OpID int

// opState is the lifecycle of an op inside the engine.
type opState int

const (
	opPending opState = iota
	opLaunching
	opRunning
	opDone
)

type op struct {
	id       OpID
	name     string
	tag      string
	tagID    int32 // index of tag in the engine's sorted tag table
	gpu      int   // -1 for host-only ops
	priority int

	overheadLeft float64
	workLeft     float64
	demands      []demandSpec

	// startSeq is the op's position in engine start order; the engine
	// keeps per-resource user lists sorted by it so that incremental
	// factor recomputation sums loads in exactly the order the original
	// full-rescan implementation did (bit-identical results).
	startSeq int

	deps    []OpID
	missing int // unfinished deps

	state opState
	start float64
	end   float64
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

// TagShare is the granted SM utilization of one kernel tag.
type TagShare struct {
	Tag string
	SM  float64
}

// UtilSegment is a span of time with constant per-GPU utilization.
type UtilSegment struct {
	Start, End float64 //rap:unit us
	SM, MemBW  float64 // granted utilization in [0,1]
	// TagSM attributes SM utilization by kernel tag: one share per tag
	// with an SM user in the segment, sorted by tag (nil when the GPU
	// ran no SM user). It is read-only and may share storage with the
	// neighbouring segment of the same GPU.
	TagSM []TagShare
}

// Result is the outcome of Sim.Run.
type Result struct {
	Ops      []OpResult
	Makespan float64 //rap:unit us
	// Util[g] is the utilization timeline of GPU g.
	Util [][]UtilSegment
	// HostUtil is the host CPU pool's utilization timeline.
	HostUtil []HostSegment
	// Events counts the simulated event-loop iterations; it normalizes
	// benchmark times to ns/event.
	Events int
}

// OpByID returns the result of op id. An out-of-range id yields the
// zero OpResult (same defined-zero behavior as AvgUtil/UtilSeries/
// BusyFraction on out-of-range GPUs).
func (r *Result) OpByID(id OpID) OpResult {
	if int(id) < 0 || int(id) >= len(r.Ops) {
		return OpResult{}
	}
	return r.Ops[int(id)]
}

// OpsByName returns all results whose op name matches, in op-ID order;
// nil when none does.
func (r *Result) OpsByName(name string) []OpResult {
	var out []OpResult
	for _, o := range r.Ops {
		if o.Name == name {
			out = append(out, o)
		}
	}
	return out
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

// UtilSeries resamples GPU g's utilization at the given period, for
// plotting Figure 1(a)-style traces. An out-of-range g or a period that
// is not positive (including NaN) yields nil.
func (r *Result) UtilSeries(g int, dt float64) []Sample {
	if g < 0 || g >= len(r.Util) || !(dt > 0) || r.Makespan <= 0 {
		return nil
	}
	n := int(math.Ceil(r.Makespan/dt)) + 1
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
	cfg     ClusterConfig
	ops     []*op
	streams map[string]OpID // last op per stream, for implicit chaining
	ran     bool
	// Op storage: ops, their demand specs and their dependency lists are
	// carved from chunks (see carve), so adding an op costs no heap
	// allocation of its own once a chunk has room. depBuf collects the
	// dependencies WithDeps and WithStream add to the op being built; add
	// copies it into depChunk once per op.
	opChunk  []op
	demChunk []demandSpec
	depChunk []OpID
	depBuf   []OpID
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
	return &Sim{cfg: cfg.WithDefaults(), streams: make(map[string]OpID), addErr: cfg.Validate()}
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

// Topology returns the installed topology (nil when none was set).
func (s *Sim) Topology() *topo.Topology { return s.topo }

// OpOption customizes an op at add time.
type OpOption func(*op, *Sim)

// WithDeps makes the op wait for the given ops. The ids are copied when
// the op is added: the caller may reuse or modify the slice afterwards.
func WithDeps(ids ...OpID) OpOption {
	return func(_ *op, s *Sim) { s.depBuf = append(s.depBuf, ids...) }
}

// WithStream serializes the op after the previous op added to the same
// stream key. Streams model CUDA streams: per-stream FIFO, cross-stream
// concurrency.
func WithStream(key string) OpOption {
	return func(o *op, s *Sim) {
		if last, ok := s.streams[key]; ok {
			s.depBuf = append(s.depBuf, last)
		}
		s.streams[key] = o.id
	}
}

// WithPriority sets the op's priority for PrioritySpace sharing; higher
// wins. Default 0.
func WithPriority(p int) OpOption {
	return func(o *op, _ *Sim) { o.priority = p }
}

// WithTag overrides the op's utilization-attribution tag.
func WithTag(tag string) OpOption {
	return func(o *op, _ *Sim) { o.tag = tag }
}

// Op-storage chunk sizes: the first chunk holds chunkMin entries and
// each later one twice its predecessor's, up to chunkMax. The first
// chunk fits a capacity probe, which runs a two-op Sim per
// binary-search step (an 8-op first chunk cost BuildPlan 0.2 MB/op);
// the cap bounds what a full chunk can strand.
const (
	chunkMin = 2
	chunkMax = 1024
)

// carve returns n zeroed entries of *chunk, capacity-limited so appends
// to them never write into the chunk. When the current chunk lacks room
// it starts a new one; earlier carvings keep referencing theirs.
func carve[T any](chunk *[]T, n int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(min(2*cap(c), chunkMax), chunkMin, n))
	}
	m := len(c)
	*chunk = c[:m+n]
	return c[m : m+n : m+n]
}

// demands carves the op's demand specs.
func (s *Sim) demands(ds ...demandSpec) []demandSpec {
	out := carve(&s.demChunk, len(ds))
	copy(out, ds)
	return out
}

// add stores o, applies the options and copies the dependencies they
// collected into the op's own storage.
func (s *Sim) add(o op, opts ...OpOption) OpID {
	p := &carve(&s.opChunk, 1)[0]
	*p = o
	p.id = OpID(len(s.ops))
	s.ops = append(s.ops, p)
	s.depBuf = s.depBuf[:0]
	for _, f := range opts {
		f(p, s)
	}
	if len(s.depBuf) > 0 {
		p.deps = carve(&s.depChunk, len(s.depBuf))
		copy(p.deps, s.depBuf)
	}
	return p.id
}

// InvalidOp is the OpID returned by Add* calls rejected at add time
// (e.g. an out-of-range GPU). It is never a valid dependency: a Run on
// a Sim that recorded an invalid add reports the add error.
const InvalidOp = OpID(-1)

// checkGPU validates a GPU index at add time, with the same message
// for every op kind. Validating at add time turns what used to be an
// unrelated slice-bounds panic deep inside the engine into an
// immediate, attributable error; the error is deferred to Run (the
// builder methods keep their fluent OpID signatures) and the offending
// call returns InvalidOp.
func (s *Sim) checkGPU(g int) bool {
	if g < 0 || g >= s.cfg.NumGPUs {
		if s.addErr == nil {
			s.addErr = fmt.Errorf("gpusim: gpu %d out of range [0,%d)", g, s.cfg.NumGPUs)
		}
		return false
	}
	return true
}

// checkFinite validates an op's launch overhead or work at add time,
// deferring the error like checkGPU. A NaN or infinite amount never
// drains below timeEps, so the engine would loop forever on it.
func (s *Sim) checkFinite(name, what string, v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if s.addErr == nil {
			s.addErr = fmt.Errorf("gpusim: op %q: %s %g is not finite", name, what, v)
		}
		return false
	}
	return true
}

// AddKernel schedules a GPU kernel on gpu. A non-finite Work or
// LaunchOverhead is rejected like an out-of-range GPU.
func (s *Sim) AddKernel(gpu int, k Kernel, opts ...OpOption) OpID {
	if !s.checkGPU(gpu) || !s.checkFinite(k.Name, "work", k.Work) ||
		!s.checkFinite(k.Name, "launch overhead", k.LaunchOverhead) {
		return InvalidOp
	}
	d := k.Demand.Clamp()
	o := op{
		name:         k.Name,
		tag:          k.Tag,
		gpu:          gpu,
		overheadLeft: k.overhead(),
		workLeft:     math.Max(k.Work, 0),
	}
	ds := make([]demandSpec, 0, 2)
	if d.SM > 0 {
		ds = append(ds, demandSpec{resSM, gpu, d.SM})
	}
	if d.MemBW > 0 {
		ds = append(ds, demandSpec{resBW, gpu, d.MemBW})
	}
	o.demands = s.demands(ds...)
	return s.add(o, opts...)
}

// AddComm schedules a point-to-point transfer of bytes from GPU src to
// GPU dst over the NVLink fabric. Non-finite bytes are rejected.
func (s *Sim) AddComm(name string, src, dst int, bytes float64, opts ...OpOption) OpID {
	if !s.checkGPU(src) || !s.checkGPU(dst) || !s.checkFinite(name, "bytes", bytes) {
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
		o := op{
			name:     name,
			tag:      "comm",
			gpu:      src,
			workLeft: work,
			demands:  s.demands(demandSpec{resBW, src, 1}),
		}
		return s.add(o, opts...)
	}
	work := bytes / (s.cfg.LinkGBs * 1e3) // µs at full link speed
	o := op{
		name:     name,
		tag:      "comm",
		gpu:      src,
		workLeft: work,
	}
	ds := append(make([]demandSpec, 0, 4),
		demandSpec{resLinkOut, src, 1},
		demandSpec{resLinkIn, dst, 1},
	)
	// A cross-node transfer additionally occupies both endpoints' fabric
	// links: it leaves the source node's uplink and enters the
	// destination node's. The demand is the flow's NVLink rate expressed
	// in fabric-link units, so a slower fabric (FabricGBs < LinkGBs)
	// saturates below one flow and slows it even alone.
	if s.numFabric > 0 && s.nodeOf[src] != s.nodeOf[dst] {
		ds = append(ds,
			demandSpec{resFabric, s.nodeOf[src], s.fabricShare},
			demandSpec{resFabric, s.nodeOf[dst], s.fabricShare},
		)
	}
	o.demands = s.demands(ds...)
	return s.add(o, opts...)
}

// AddLinkBusy schedules an op that occupies GPU g's links for the time a
// collective of the given per-GPU byte volume would take. Collectives
// (all-to-all, all-reduce) are expressed as one such op per participant.
// Non-finite bytes are rejected.
func (s *Sim) AddLinkBusy(name string, g int, bytes float64, opts ...OpOption) OpID {
	if !s.checkGPU(g) || !s.checkFinite(name, "bytes", bytes) {
		return InvalidOp
	}
	work := bytes / (s.cfg.LinkGBs * 1e3)
	o := op{
		name:     name,
		tag:      "comm",
		gpu:      g,
		workLeft: work,
	}
	ds := append(make([]demandSpec, 0, 3),
		demandSpec{resLinkOut, g, 1},
		demandSpec{resLinkIn, g, 1},
	)
	// Under a multi-node topology a collective participant's traffic is
	// partly cross-node: with all-to-all-style uniform peering, the
	// fraction of g's peers outside its node is (N−k)/(N−1) for a node
	// of k GPUs. That share of the flow transits g's node fabric link.
	if s.numFabric > 0 && s.cfg.NumGPUs > 1 {
		node := s.nodeOf[g]
		frac := float64(s.cfg.NumGPUs-s.nodeSize[node]) / float64(s.cfg.NumGPUs-1)
		if frac > 0 {
			ds = append(ds, demandSpec{resFabric, node, frac * s.fabricShare})
		}
	}
	o.demands = s.demands(ds...)
	return s.add(o, opts...)
}

// AddHostCopy schedules a host-to-device copy of bytes onto GPU g's copy
// engine (the data-preparation transfer of §6.3). Non-finite bytes are
// rejected.
func (s *Sim) AddHostCopy(name string, g int, bytes float64, opts ...OpOption) OpID {
	if !s.checkGPU(g) || !s.checkFinite(name, "bytes", bytes) {
		return InvalidOp
	}
	work := bytes / (s.cfg.CopyGBs * 1e3)
	o := op{
		name:     name,
		tag:      "hostcopy",
		gpu:      g,
		workLeft: work,
		demands:  s.demands(demandSpec{resCopy, g, 1}),
	}
	return s.add(o, opts...)
}

// AddCPU schedules host-side work taking micros µs on `workers` CPU
// workers out of the host pool. Non-finite micros are rejected.
func (s *Sim) AddCPU(name string, micros float64, workers int, opts ...OpOption) OpID {
	if !s.checkFinite(name, "micros", micros) {
		return InvalidOp
	}
	if workers < 1 {
		workers = 1
	}
	frac := float64(workers) / float64(s.cfg.HostCores)
	if frac > 1 {
		frac = 1
	}
	o := op{
		name:     name,
		tag:      "cpu",
		gpu:      -1,
		workLeft: micros,
		demands:  s.demands(demandSpec{resCPU, 0, frac}),
	}
	return s.add(o, opts...)
}

// AddBarrier schedules a zero-duration synchronization op.
func (s *Sim) AddBarrier(name string, opts ...OpOption) OpID {
	return s.add(op{name: name, tag: "sync", gpu: -1}, opts...)
}

// NumOps returns the number of ops added so far.
func (s *Sim) NumOps() int { return len(s.ops) }
