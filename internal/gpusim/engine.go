package gpusim

import (
	"fmt"
	"math"
)

const (
	timeEps = 1e-9
	// minSpeed bounds how far contention can slow an op, guaranteeing
	// forward progress in the event loop even under extreme
	// oversubscription.
	minSpeed = 1e-3

	// ContentionExponent makes fair-share slowdown superlinear when a
	// resource is oversubscribed: factor = (1/load)^φ. Oversubscribed
	// SMs and memory systems lose aggregate throughput to cache
	// thrashing and scheduling overhead, which is why unmanaged
	// co-running (the MPS baseline) hurts more than proportionally
	// (paper Figure 1c: overlapping an oversized kernel inflates MLP
	// latency sharply).
	ContentionExponent = 1.3

	// PriorityBurstFactor inflates a high-priority op's SM load when
	// computing the leftover available to lower priorities. GPUs
	// preempt at thread-block granularity: a training kernel with 70%
	// time-averaged SM use still occupies nearly all SM slots during
	// its bursts, so a low-priority stream sees far less than the
	// time-averaged headroom (this is what starves the CUDA-stream
	// baseline, §8.2).
	PriorityBurstFactor = 2.0
)

// The engine hot path. Every simulated run (pipelines, baselines, fleet
// jobs, all figure reproductions) replays DAGs through Run, so this
// file is optimized for event-loop throughput under one hard invariant:
// results are bit-identical to the straightforward rebuild-everything
// implementation preserved in engine_reference_test.go. Four
// structural changes carry the win:
//
//   - Resources live in one dense, kind-major array indexed by
//     kind·NumGPUs+gpu (the single host-CPU slot last) instead of a
//     map[resKey] rebuilt per event. Each op's demands are resolved to
//     dense indices once, when the op is added.
//   - The op store is flat and pointer-free (see op): ops sit by value
//     in one []op, their demands and dependencies are int32 spans of two
//     Sim-wide slices, and names and tags live in parallel string
//     slices the loop never reads. The loop addresses ops by int32
//     index, a resource's user list carries each user's start sequence
//     and priority inline, and Result.Ops is filled in one pass after
//     the loop (skipped, with the names and tags, under
//     ClusterConfig.EndTimesOnly). The garbage collector scans none of
//     it.
//   - Slowdown factors are recomputed incrementally: only resources
//     whose running-user set changed since the previous event are
//     marked dirty and re-derived, and only the speeds of ops touching
//     a dirty resource are refreshed. Per-resource user lists are kept
//     ordered by op start sequence so the recomputed loads sum in
//     exactly the order the full rescan used — float addition is not
//     associative, and bit-identity demands identical orders.
//   - Utilization is recorded only on request. Without
//     ClusterConfig.Timelines, Run allocates no timeline and never calls
//     recordUtil; op times, Makespan and Events do not depend on it.
//     With it, every recorded event re-sums each timeline's grants from
//     its resources' user lists (see recordUtil).
//
// A non-change worth recording: the next-event horizon is still a linear
// pass over the running set, not an indexed min-heap. The reference
// engine decrements every running op's remaining work by dt·speed on
// every event, and replaying that float sequence exactly requires
// touching every running op per event anyway — a heap keyed on projected
// completion times would compute remaining time as (end − now), which
// rounds differently and breaks bit-identity. The horizon scan shares
// the loop the decrement already pays for.

// resLevel is the aggregate demand of one priority level on a resource.
type resLevel struct {
	prio int32
	load float64
}

// prioFactor is the slowdown factor granted to one priority level.
type prioFactor struct {
	prio int32
	f    float64
}

// resUser is one op currently in its work phase using a resource, with
// the op's start sequence and priority carried inline so that keeping
// the list ordered and summing its levels read no op.
type resUser struct {
	dem  float64
	id   int32
	seq  int32
	prio int32
}

// resState is the engine's per-resource bookkeeping.
type resState struct {
	// users holds the running-phase users ordered by op start sequence
	// (the order the running slice would enumerate them).
	users []resUser
	// factors caches the per-priority slowdown factors; valid until the
	// user set changes.
	factors []prioFactor
	// levels is recomputation scratch, reused across events.
	levels []resLevel
	dirty  bool
}

func (st *resState) insertUser(u resUser) {
	users := append(st.users, resUser{})
	i := len(users) - 1
	for i > 0 && users[i-1].seq > u.seq {
		i--
	}
	copy(users[i+1:], users[i:])
	users[i] = u
	st.users = users
}

func (st *resState) removeUser(id int32) {
	for i := range st.users {
		if st.users[i].id == id {
			st.users = append(st.users[:i], st.users[i+1:]...)
			return
		}
	}
}

// factorFor returns the cached slowdown factor for a priority level; 1
// (no constraint) when the level has no running users.
func (st *resState) factorFor(prio int32) float64 {
	for _, pf := range st.factors {
		if pf.prio == prio {
			return pf.f
		}
	}
	return 1
}

// engine is the per-Run state of the event loop.
type engine struct {
	s       *Sim
	numGPUs int
	// ops and dems are the Sim's op store and demands.
	ops  []op
	dems []rtDemand

	// Dense per-(resource-kind × GPU) state; index kind·NumGPUs+gpu,
	// with the host-wide CPU slot at position numResKinds-1 · NumGPUs.
	res   []resState
	dirty []int32 // indices of resources whose user set changed

	// caps is each resource's capacity, constant for the whole run (see
	// initialCaps).
	caps []float64

	// childOff/children are the DAG in CSR form (built by Run): op o's
	// children are children[childOff[o]:childOff[o+1]].
	childOff []int32
	children []int32
	// starts[i] is op i's start time, kept only when the Sim keeps
	// names (it fills Result.Ops).
	starts []float64

	running []int32
	nextSeq int32

	// Reusable buffer.
	finished []int32
}

// Run executes the accumulated op DAG and returns the timeline. A Sim is
// single-use: Run may only be called once.
//
//rap:deterministic
func (s *Sim) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("gpusim: Sim.Run called twice")
	}
	s.ran = true
	if s.addErr != nil {
		return nil, s.addErr
	}

	// Wire the DAG into CSR form: op d's children are
	// children[childOff[d]:childOff[d+1]], in op-ID order. A dependency
	// listed twice by one op is wired twice and counted twice in the
	// op's unfinished-dependency count, so the op starts at the second
	// decrement, in the same place among its dependency's children. The
	// count pass counts d's children in childOff[d+2]; after the prefix
	// sum, childOff[d+1] is where d's children begin, and the fill pass
	// advances it to where they end, which is where d+1's begin.
	n := int32(len(s.ops))
	childOff := make([]int32, n+2)
	for i := range s.ops {
		o, id := &s.ops[i], int32(i)
		ds, shift := s.depSpan(i)
		for _, d := range ds {
			d += shift
			if d < 0 || d >= n {
				return nil, fmt.Errorf("gpusim: op %s depends on unknown op %d", s.opLabel(i), d)
			}
			if d == id {
				return nil, fmt.Errorf("gpusim: op %s depends on itself", s.opLabel(i))
			}
			childOff[d+2]++
			o.seq++
		}
	}
	for i := int32(2); i < n+2; i++ {
		childOff[i] += childOff[i-1]
	}
	children := make([]int32, childOff[n+1])
	for i := range s.ops {
		ds, shift := s.depSpan(i)
		for _, d := range ds {
			children[childOff[d+shift+1]] = int32(i)
			childOff[d+shift+1]++
		}
	}

	g := s.cfg.NumGPUs
	// 5 per-GPU kinds ×g, one CPU slot, then one fabric link per node —
	// zero of those without a multi-node topology, so the layout (and
	// every float trajectory derived from it) is unchanged.
	e := &engine{
		s:        s,
		numGPUs:  g,
		ops:      s.ops,
		dems:     s.dems,
		res:      make([]resState, numResKinds*g-(g-1)+s.numFabric),
		dirty:    make([]int32, 0, 32),
		caps:     initialCaps(s),
		childOff: childOff,
		children: children,
	}
	if !s.cfg.EndTimesOnly {
		e.starts = make([]float64, n)
	}
	return e.run()
}

// initialCaps returns every resource's capacity in the dense layout of
// resIndex: 1 for the per-GPU kinds and the host pool, and 1/Oversub
// times the node's fabric scale for each fabric link. With no
// multi-node topology there are no fabric links and every entry is 1.
func initialCaps(s *Sim) []float64 {
	g := s.cfg.NumGPUs
	caps := make([]float64, resIndex(resFabric, s.numFabric, g))
	for i := range caps {
		caps[i] = 1
	}
	for n := 0; n < s.numFabric; n++ {
		c := s.fabricCap
		if n < len(s.fabricScale) {
			c *= s.fabricScale[n]
		}
		caps[resIndex(resFabric, n, g)] = c
	}
	return caps
}

func (e *engine) markDirty(idx int32) {
	if st := &e.res[idx]; !st.dirty {
		st.dirty = true
		e.dirty = append(e.dirty, idx)
	}
}

// enterWork registers op id, which entered its work phase, with its
// resources. Zero-demand ops (barriers, local transfers) just run at
// full speed.
func (e *engine) enterWork(id int32) {
	o := &e.ops[id]
	o.launchSpeedEnd = 1
	u := resUser{id: id, seq: o.seq, prio: o.priority}
	for _, d := range o.demandsIn(e.dems) {
		u.dem = d.dem
		e.res[d.idx].insertUser(u)
		e.markDirty(d.idx)
	}
}

// leaveWork unregisters finished op id from its resources.
func (e *engine) leaveWork(id int32) {
	for _, d := range e.ops[id].demandsIn(e.dems) {
		e.res[d.idx].removeUser(id)
		e.markDirty(d.idx)
	}
}

// refreshFactors re-derives the slowdown factors of one resource from
// its ordered user list. The math and, critically, the summation order
// match the reference implementation's full rescan.
func (e *engine) refreshFactors(idx int32) {
	st := &e.res[idx]
	st.levels = st.levels[:0]
	for _, u := range st.users {
		found := false
		for i := range st.levels {
			if st.levels[i].prio == u.prio {
				st.levels[i].load += u.dem
				found = true
				break
			}
		}
		if !found {
			st.levels = append(st.levels, resLevel{prio: u.prio, load: u.dem})
		}
	}
	st.factors = st.factors[:0]
	// cap is the resource's capacity: exactly 1.0 for every resource but
	// a fabric link.
	cap := e.caps[idx]
	switch e.s.cfg.Policy {
	case PrioritySpace:
		// Highest priority first. Insertion sort: levels are few and
		// priorities unique, so this matches any comparison sort.
		for i := 1; i < len(st.levels); i++ {
			for j := i; j > 0 && st.levels[j].prio > st.levels[j-1].prio; j-- {
				st.levels[j], st.levels[j-1] = st.levels[j-1], st.levels[j]
			}
		}
		isSM := int(idx) < e.numGPUs // kind-major layout: SM block first
		remaining := cap
		for i, lv := range st.levels {
			f := 1.0
			if lv.load > remaining {
				if remaining <= 0 {
					f = 0
				} else {
					f = remaining / lv.load
				}
				remaining = 0
			} else {
				remaining -= lv.load
				// Lower priorities see the burst-inflated SM footprint
				// of this level, not its time average.
				if isSM && i < len(st.levels)-1 {
					burst := lv.load * (PriorityBurstFactor - 1)
					if burst > remaining {
						remaining = 0
					} else {
						remaining -= burst
					}
				}
			}
			st.factors = append(st.factors, prioFactor{prio: lv.prio, f: f})
		}
	default: // FairShare: one factor for everyone on the resource
		total := 0.0
		for _, lv := range st.levels {
			total += lv.load
		}
		f := 1.0
		if total > cap {
			f = math.Pow(cap/total, ContentionExponent)
		}
		for _, lv := range st.levels {
			st.factors = append(st.factors, prioFactor{prio: lv.prio, f: f})
		}
	}
}

// refreshSpeed recomputes running op id's speed from its resources'
// cached factors.
func (e *engine) refreshSpeed(id int32) {
	o := &e.ops[id]
	sp := 1.0
	for _, d := range o.demandsIn(e.dems) {
		if f := e.res[d.idx].factorFor(o.priority); f < sp {
			sp = f
		}
	}
	if sp < minSpeed {
		sp = minSpeed
	}
	o.launchSpeedEnd = sp
}

func (e *engine) run() (*Result, error) {
	s, ops := e.s, e.ops
	res := &Result{}
	timelines := s.cfg.Timelines
	if timelines {
		res.Util = make([][]UtilSegment, e.numGPUs)
	}

	now := 0.0
	done := 0

	start := func(id int32) {
		o := &ops[id]
		o.state = opLaunching
		if e.starts != nil {
			e.starts[id] = now
		}
		o.seq = e.nextSeq
		e.nextSeq++
		if o.launchSpeedEnd <= timeEps {
			o.state = opRunning
			e.enterWork(id)
		}
		e.running = append(e.running, id)
	}
	for i := range ops {
		if ops[i].seq == 0 {
			start(int32(i))
		}
	}

	for done < len(ops) {
		if len(e.running) == 0 {
			return nil, fmt.Errorf("gpusim: deadlock — %d ops pending with no runnable op (dependency cycle?)", len(ops)-done)
		}
		res.Events++

		// Refresh factors of resources whose running set changed, then
		// the speeds of (only) the ops those resources serve. Two
		// passes: an op spanning two dirty resources must see both
		// resources' new factors.
		for _, idx := range e.dirty {
			e.res[idx].dirty = false
			e.refreshFactors(idx)
		}
		for _, idx := range e.dirty {
			for _, u := range e.res[idx].users {
				e.refreshSpeed(u.id)
			}
		}
		e.dirty = e.dirty[:0]

		// Next event horizon.
		dt := math.Inf(1)
		for _, id := range e.running {
			o := &ops[id]
			switch o.state {
			case opLaunching:
				if o.launchSpeedEnd < dt {
					dt = o.launchSpeedEnd
				}
			case opRunning:
				if rem := o.workLeft / o.launchSpeedEnd; rem < dt {
					dt = rem
				}
			}
		}
		if dt < 0 {
			dt = 0
		}
		if math.IsInf(dt, 1) {
			dt = 0 // only zero-work ops are running; complete them now
		}

		// Record utilization for this segment.
		if timelines && dt > timeEps {
			e.recordUtil(res, now, now+dt)
		}

		// Advance and retire.
		now += dt
		next := e.running[:0]
		finished := e.finished[:0]
		for _, id := range e.running {
			o := &ops[id]
			switch o.state {
			case opLaunching:
				o.launchSpeedEnd -= dt
				if o.launchSpeedEnd <= timeEps {
					o.launchSpeedEnd = 0
					o.state = opRunning
					if o.workLeft <= timeEps {
						// Never entered the work phase's resource
						// accounting; retire directly.
						finished = append(finished, id)
						continue
					}
					e.enterWork(id)
				}
				next = append(next, id)
			case opRunning:
				o.workLeft -= dt * o.launchSpeedEnd
				if o.workLeft <= timeEps {
					e.leaveWork(id)
					finished = append(finished, id)
					continue
				}
				next = append(next, id)
			}
		}
		e.running = next
		for _, id := range finished {
			o := &ops[id]
			o.state = opDone
			o.launchSpeedEnd = now
			done++
			for _, c := range e.children[e.childOff[id]:e.childOff[id+1]] {
				child := &ops[c]
				child.seq--
				if child.seq == 0 && child.state == opPending {
					start(c)
				}
			}
		}
		e.finished = finished
	}
	res.Makespan = now
	if s.cfg.EndTimesOnly {
		return res, nil
	}
	res.Ops = make([]OpResult, len(ops))
	for i := range ops {
		o := &ops[i]
		res.Ops[i] = OpResult{ID: OpID(i), Name: s.names[i], Tag: s.tags[i], GPU: int(o.gpu), Start: e.starts[i], End: o.launchSpeedEnd}
	}
	return res, nil
}

// recordUtil covers [t0,t1) on the host and every GPU timeline. Each
// value sums its resources' grants over their user lists, whose op start
// order is the order a rescan of the running slice sums in. A timeline's
// last segment is extended when it ends at t0 and holds equal values;
// otherwise a segment is appended.
func (e *engine) recordUtil(res *Result, t0, t1 float64) {
	cpu := math.Min(e.granted(resIndex(resCPU, 0, e.numGPUs)), 1)
	host := res.HostUtil
	//lint:ignore floateq intentional bit-equality: adjacent segments merge only when identical
	if n := len(host); n > 0 && host[n-1].End == t0 && host[n-1].CPU == cpu {
		host[n-1].End = t1
	} else {
		res.HostUtil = append(host, HostSegment{Start: t0, End: t1, CPU: cpu})
	}
	for g := 0; g < e.numGPUs; g++ {
		sm := math.Min(e.granted(resIndex(resSM, g, e.numGPUs)), 1)
		bw := math.Min(e.granted(resIndex(resBW, g, e.numGPUs)), 1)
		segs := res.Util[g]
		//lint:ignore floateq intentional bit-equality: adjacent segments merge only when identical
		if n := len(segs); n > 0 && segs[n-1].End == t0 && segs[n-1].SM == sm && segs[n-1].MemBW == bw {
			segs[n-1].End = t1
			continue
		}
		res.Util[g] = append(segs, UtilSegment{Start: t0, End: t1, SM: sm, MemBW: bw})
	}
}

// granted sums the grants of resource idx's users: each demand times the
// slowdown factor of its op's priority level.
func (e *engine) granted(idx int32) float64 {
	st := &e.res[idx]
	sum := 0.0
	for _, u := range st.users {
		sum += u.dem * st.factorFor(u.prio)
	}
	return sum
}

// BusyFraction returns the fraction of [0,upTo] during which GPU g had at
// least one kernel resident (the NVML-style "GPU utilization" metric of
// Table 4). upTo <= 0 means the whole makespan. An out-of-range g
// yields 0.
func (r *Result) BusyFraction(g int, upTo float64) float64 {
	if g < 0 || g >= len(r.Util) {
		return 0
	}
	if upTo <= 0 {
		upTo = r.Makespan
	}
	if upTo <= 0 {
		return 0
	}
	busy := 0.0
	for _, seg := range r.Util[g] {
		if seg.SM <= 0 && seg.MemBW <= 0 {
			continue
		}
		s, e := seg.Start, seg.End
		if s >= upTo {
			break
		}
		if e > upTo {
			e = upTo
		}
		busy += e - s
	}
	return busy / upTo
}
