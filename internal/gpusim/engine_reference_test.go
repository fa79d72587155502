package gpusim

import (
	"fmt"
	"math"
	"sort"
)

// This file preserves the discrete-event engine exactly as it stood
// before the dense-resource-index optimization: resource factors are
// rebuilt from scratch into fresh maps on every event and utilization
// accumulators are reallocated per segment. It is the executable
// specification for TestGoldenEquivalence — the optimized Run must
// produce bit-identical Results on every DAG. The only mechanical
// adaptation from the original is iterating the op's demand slice
// instead of the former map[resKey]float64: each op holds at most one
// demand per resource, so every accumulation cell still receives its
// contributions in the same (running-slice) order and the float math is
// unchanged. Each op's children are kept in a per-op slice local to
// the run, as they once were in the op itself, and so are its start
// times. Segments carry no tag
// attribution: a GPU segment holds SM and bandwidth only. Ops are read
// from the flat op store by index, and each demand's dense resource
// index is decoded back into the (kind, gpu) pair the maps key on.

// depsOf returns op i's dependencies, in a fresh slice for a stamped op.
func (s *Sim) depsOf(i int) []int32 {
	ds, shift := s.depSpan(i)
	if shift == 0 {
		return ds
	}
	out := make([]int32, len(ds))
	for j, d := range ds {
		out[j] = d + shift
	}
	return out
}

type refResKey struct {
	kind resKind
	gpu  int
}

type refFactorKey struct {
	res  refResKey
	prio int32
}

// refKey decodes demand d's dense resource index into its map key.
func refKey(d rtDemand, numGPUs int) refResKey {
	return refResKey{d.kind, int(d.idx - resIndex(d.kind, 0, numGPUs))}
}

// referenceRun executes the accumulated op DAG with the pre-optimization
// event loop. Like Run, it may only be called once per Sim.
func referenceRun(s *Sim) (*Result, error) {
	res, _, err := referenceRunClamps(s)
	return res, err
}

// referenceRunClamps is referenceRun that also counts the op speeds
// minSpeed raised: the events at which a running op's slowdown factor
// fell below it.
func referenceRunClamps(s *Sim) (_ *Result, clamps int, _ error) {
	if s.ran {
		return nil, 0, fmt.Errorf("gpusim: Sim.Run called twice")
	}
	s.ran = true

	// Wire the DAG.
	children := make([][]OpID, len(s.ops))
	for i := range s.ops {
		o, id := &s.ops[i], OpID(i)
		seen := make(map[OpID]bool, len(s.depsOf(i)))
		for _, d32 := range s.depsOf(i) {
			d := OpID(d32)
			if d < 0 || int(d) >= len(s.ops) {
				return nil, 0, fmt.Errorf("gpusim: op %q depends on unknown op %d", s.names[id], d)
			}
			if d == id {
				return nil, 0, fmt.Errorf("gpusim: op %q depends on itself", s.names[id])
			}
			if seen[d] {
				continue
			}
			seen[d] = true
			children[d] = append(children[d], id)
			o.seq++
		}
	}

	res := &Result{
		Ops:  make([]OpResult, len(s.ops)),
		Util: make([][]UtilSegment, s.cfg.NumGPUs),
	}

	now := 0.0
	var running []OpID
	done := 0

	// Capacities are the engine's: all 1.0 but the fabric links, whose
	// 1/Oversub base carries each node's fabric scale.
	caps := initialCaps(s)

	starts := make([]float64, len(s.ops))
	start := func(id OpID) {
		o := &s.ops[id]
		o.state = opLaunching
		starts[id] = now
		if o.launchSpeedEnd <= timeEps {
			o.state = opRunning
		}
		running = append(running, id)
	}
	for i := range s.ops {
		if s.ops[i].seq == 0 {
			start(OpID(i))
		}
	}

	speeds := make([]float64, len(s.ops))
	for done < len(s.ops) {
		if len(running) == 0 {
			return nil, 0, fmt.Errorf("gpusim: deadlock — %d ops pending with no runnable op (dependency cycle?)", len(s.ops)-done)
		}

		// Resource factors for ops in the work phase.
		factors := refResourceFactors(s, running, caps)

		// Per-op speed and the next event horizon.
		dt := math.Inf(1)
		for _, id := range running {
			o := &s.ops[id]
			switch o.state {
			case opLaunching:
				speeds[id] = 1
				if o.launchSpeedEnd/1 < dt {
					dt = o.launchSpeedEnd
				}
			case opRunning:
				sp := 1.0
				for _, d := range o.demandsIn(s.dems) {
					if d.dem <= 0 {
						continue
					}
					rk := refKey(d, s.cfg.NumGPUs)
					if f, ok := factors[refFactorKey{rk, o.priority}]; ok && f < sp {
						sp = f
					}
				}
				if sp < minSpeed {
					sp = minSpeed
					clamps++
				}
				speeds[id] = sp
				if rem := o.workLeft / sp; rem < dt {
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
		if dt > timeEps {
			refRecordUtil(s, res, now, now+dt, running, factors)
		}

		// Advance and retire.
		now += dt
		next := running[:0]
		var finished []OpID
		for _, id := range running {
			o := &s.ops[id]
			switch o.state {
			case opLaunching:
				o.launchSpeedEnd -= dt
				if o.launchSpeedEnd <= timeEps {
					o.launchSpeedEnd = 0
					o.state = opRunning
					if o.workLeft <= timeEps {
						finished = append(finished, id)
						continue
					}
				}
				next = append(next, id)
			case opRunning:
				o.workLeft -= dt * speeds[id]
				if o.workLeft <= timeEps {
					finished = append(finished, id)
					continue
				}
				next = append(next, id)
			}
		}
		running = next
		for _, id := range finished {
			o := &s.ops[id]
			o.state = opDone
			o.launchSpeedEnd = now
			done++
			res.Ops[id] = OpResult{ID: id, Name: s.names[id], Tag: s.tags[id], GPU: int(o.gpu), Start: starts[id], End: now}
			for _, c := range children[id] {
				child := &s.ops[c]
				child.seq--
				if child.seq == 0 && child.state == opPending {
					start(c)
				}
			}
		}
	}
	res.Makespan = now
	return res, clamps, nil
}

// refResourceFactors computes, for every (resource, priority level) with
// at least one running user, the slowdown factor its users receive —
// rebuilding the full map on every call, as the pre-optimization engine
// did. caps holds the per-resource capacities in the dense kind-major
// layout (all 1.0 but the fabric links).
func refResourceFactors(s *Sim, running []OpID, caps []float64) map[refFactorKey]float64 {
	type level struct {
		prio int32
		load float64
	}
	byRes := make(map[refResKey][]level)
	for _, id := range running {
		o := &s.ops[id]
		if o.state != opRunning {
			continue
		}
		for _, d := range o.demandsIn(s.dems) {
			if d.dem <= 0 {
				continue
			}
			rk := refKey(d, s.cfg.NumGPUs)
			levels := byRes[rk]
			found := false
			for i := range levels {
				if levels[i].prio == o.priority {
					levels[i].load += d.dem
					found = true
					break
				}
			}
			if !found {
				levels = append(levels, level{prio: o.priority, load: d.dem})
			}
			byRes[rk] = levels
		}
	}

	out := make(map[refFactorKey]float64)
	for rk, levels := range byRes {
		cap := caps[resIndex(rk.kind, rk.gpu, s.cfg.NumGPUs)]
		switch s.cfg.Policy {
		case PrioritySpace:
			sort.Slice(levels, func(i, j int) bool { return levels[i].prio > levels[j].prio })
			remaining := cap
			for i, lv := range levels {
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
					// Lower priorities see the burst-inflated SM
					// footprint of this level, not its time average.
					if rk.kind == resSM && i < len(levels)-1 {
						burst := lv.load * (PriorityBurstFactor - 1)
						if burst > remaining {
							remaining = 0
						} else {
							remaining -= burst
						}
					}
				}
				out[refFactorKey{rk, lv.prio}] = f
			}
		default: // FairShare: one factor for everyone on the resource
			total := 0.0
			for _, lv := range levels {
				total += lv.load
			}
			f := 1.0
			if total > cap {
				f = math.Pow(cap/total, ContentionExponent)
			}
			for _, lv := range levels {
				out[refFactorKey{rk, lv.prio}] = f
			}
		}
	}
	return out
}

// refRecordUtil appends one utilization segment per GPU covering [t0,t1).
func refRecordUtil(s *Sim, res *Result, t0, t1 float64, running []OpID, factors map[refFactorKey]float64) {
	type acc struct {
		sm, bw float64
	}
	accs := make([]acc, s.cfg.NumGPUs)
	hostCPU := 0.0
	for _, id := range running {
		o := &s.ops[id]
		if o.state != opRunning {
			continue
		}
		for _, d := range o.demandsIn(s.dems) {
			if d.kind == resCPU {
				hostCPU += d.dem * factors[refFactorKey{refKey(d, s.cfg.NumGPUs), o.priority}]
			}
		}
		if o.gpu < 0 {
			continue
		}
		for _, d := range o.demandsIn(s.dems) {
			rk := refKey(d, s.cfg.NumGPUs)
			f := factors[refFactorKey{rk, o.priority}]
			switch d.kind {
			case resSM:
				accs[rk.gpu].sm += d.dem * f
			case resBW:
				accs[rk.gpu].bw += d.dem * f
			}
		}
	}
	if hostCPU > 1 {
		hostCPU = 1
	}
	if n := len(res.HostUtil); n > 0 && res.HostUtil[n-1].End == t0 && res.HostUtil[n-1].CPU == hostCPU {
		res.HostUtil[n-1].End = t1
	} else {
		res.HostUtil = append(res.HostUtil, HostSegment{Start: t0, End: t1, CPU: hostCPU})
	}
	for g := 0; g < s.cfg.NumGPUs; g++ {
		sm, bw := math.Min(accs[g].sm, 1), math.Min(accs[g].bw, 1)
		// Merge with the previous segment when nothing changed, to keep
		// timelines compact.
		if n := len(res.Util[g]); n > 0 {
			prev := &res.Util[g][n-1]
			if prev.End == t0 && prev.SM == sm && prev.MemBW == bw {
				prev.End = t1
				continue
			}
		}
		res.Util[g] = append(res.Util[g], UtilSegment{Start: t0, End: t1, SM: sm, MemBW: bw})
	}
}
