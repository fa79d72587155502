package gpusim

import (
	"bytes"
	"math"
	"testing"
)

// TestGoldenEquivalence replays every seeded random DAG through both the
// optimized engine and the preserved reference implementation and
// requires bit-identical Results: op timings, makespan, event count,
// utilization segments and host-pool segments. Unlike
// TestGoldenDigests this comparison is self-contained in one binary, so
// it holds on any platform or Go version.
func TestGoldenEquivalence(t *testing.T) {
	for seed := 0; seed < goldenSeeds; seed++ {
		got, err := buildGoldenDAG(int64(seed)).Run()
		if err != nil {
			t.Fatalf("seed %d: optimized engine: %v", seed, err)
		}
		want, err := referenceRun(buildGoldenDAG(int64(seed)))
		if err != nil {
			t.Fatalf("seed %d: reference engine: %v", seed, err)
		}
		compareResults(t, seed, got, want)
	}
}

func compareResults(t *testing.T, seed int, got, want *Result) {
	t.Helper()
	bitEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !bitEq(got.Makespan, want.Makespan) {
		t.Errorf("seed %d: makespan %v != reference %v", seed, got.Makespan, want.Makespan)
	}
	if got.Events != want.Events {
		t.Errorf("seed %d: %d events != reference %d", seed, got.Events, want.Events)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("seed %d: %d ops != reference %d", seed, len(got.Ops), len(want.Ops))
	}
	var gotName, wantName []byte
	for i := range got.Ops {
		g, w := &got.Ops[i], &want.Ops[i]
		gl, wl := &got.Labels[g.Label], &want.Labels[w.Label]
		gotName, wantName = gl.AppendName(gotName[:0], g.Iter), wl.AppendName(wantName[:0], w.Iter)
		if !bytes.Equal(gotName, wantName) || gl.Tag != wl.Tag || g.GPU != w.GPU ||
			!bitEq(g.Start, w.Start) || !bitEq(g.End, w.End) {
			t.Errorf("seed %d: op %d: %+v != reference %+v", seed, i, got.OpByID(OpID(i)), want.OpByID(OpID(i)))
		}
	}
	if len(got.Util) != len(want.Util) {
		t.Fatalf("seed %d: %d util timelines != reference %d", seed, len(got.Util), len(want.Util))
	}
	for g := range got.Util {
		if len(got.Util[g]) != len(want.Util[g]) {
			t.Errorf("seed %d: gpu %d: %d segments != reference %d", seed, g, len(got.Util[g]), len(want.Util[g]))
			continue
		}
		for i := range got.Util[g] {
			gs, ws := got.Util[g][i], want.Util[g][i]
			if !bitEq(gs.Start, ws.Start) || !bitEq(gs.End, ws.End) ||
				!bitEq(gs.SM, ws.SM) || !bitEq(gs.MemBW, ws.MemBW) {
				t.Errorf("seed %d: gpu %d seg %d: %+v != reference %+v", seed, g, i, gs, ws)
			}
		}
	}
	if len(got.HostUtil) != len(want.HostUtil) {
		t.Fatalf("seed %d: %d host segments != reference %d", seed, len(got.HostUtil), len(want.HostUtil))
	}
	for i := range got.HostUtil {
		gs, ws := got.HostUtil[i], want.HostUtil[i]
		if !bitEq(gs.Start, ws.Start) || !bitEq(gs.End, ws.End) || !bitEq(gs.CPU, ws.CPU) {
			t.Errorf("seed %d: host seg %d: %+v != reference %+v", seed, i, gs, ws)
		}
	}
}

// TestFairShareRefreshExact runs hand-built FairShare DAGs, each aimed at
// one way a speed could go stale between events, through the engine, with
// and without timelines, and the reference engine (see checkBothModes):
// op ends, Makespan, Events and timelines must agree bit for bit. Each
// case also checks the end times that show it exercises what it names.
// On GPU 0, a 0.75 and a 0.5 bandwidth demand oversubscribe the memory
// system (load 1.25), and an SM load of at most 1 leaves the SMs at
// factor 1.
func TestFairShareRefreshExact(t *testing.T) {
	k := func(name string, work, overhead float64, d Demand) Kernel {
		return Kernel{Name: name, Work: work, LaunchOverhead: overhead, Demand: d}
	}
	for i, c := range []struct {
		name  string
		build func(s *Sim)
		check func(t *testing.T, ops []OpRecord)
	}{{
		// a and b are throttled by bandwidth from t = 0; c enters the
		// SMs at t = 5, whose factor stays exactly 1, and runs at full
		// speed beside them.
		name: "enter a factor that stays 1 beside a throttled co-user",
		build: func(s *Sim) {
			s.AddKernel(0, k("a", 40, -1, Demand{SM: 0.3, MemBW: 0.75}))
			s.AddKernel(0, k("b", 30, -1, Demand{SM: 0.3, MemBW: 0.5}), WithPriority(1))
			s.AddKernel(0, k("c", 20, 5, Demand{SM: 0.2}))
		},
		check: func(t *testing.T, ops []OpRecord) {
			if ops[2].End != 25 || ops[1].End <= 30 {
				t.Errorf("c ends at %v (want 25), b at %v (want > 30)", ops[2].End, ops[1].End)
			}
		},
	}, {
		// b's end returns the bandwidth factor to 1, so a speeds up for
		// its last 30 µs of work.
		name: "factor returns to 1",
		build: func(s *Sim) {
			s.AddKernel(0, k("a", 40, -1, Demand{SM: 0.1, MemBW: 0.75}))
			s.AddKernel(0, k("b", 10, -1, Demand{MemBW: 0.5}))
		},
		check: func(t *testing.T, ops []OpRecord) {
			if d := ops[0].End - ops[1].End; math.Abs(d-30) > 1e-6 {
				t.Errorf("a ends %v after b, want 30", d)
			}
		},
	}, {
		// y takes x's place on the bandwidth at x's end: the load is
		// 1.25 before and after, so the factor keeps its bits and y must
		// still run throttled; z enters the idle SMs at factor 1.
		name: "enter resources whose factors did not change",
		build: func(s *Sim) {
			s.AddKernel(0, k("a", 60, -1, Demand{MemBW: 0.75}))
			x := s.AddKernel(0, k("x", 10, -1, Demand{MemBW: 0.5}))
			s.AddKernel(0, k("y", 10, -1, Demand{MemBW: 0.5}), WithDeps(x))
			s.AddKernel(0, k("z", 5, -1, Demand{SM: 0.2}), WithDeps(x))
		},
		check: func(t *testing.T, ops []OpRecord) {
			if y, z := ops[2].End-ops[1].End, ops[3].End-ops[1].End; y <= 10 || z != 5 {
				t.Errorf("y runs %v (want > 10), z %v (want 5)", y, z)
			}
		},
	}, {
		// z enters its work phase at t = 2 and w at t = 0 while a and b
		// run throttled; neither has a demand, so both run at full
		// speed.
		name: "zero-demand ops enter work",
		build: func(s *Sim) {
			s.AddKernel(0, k("a", 40, -1, Demand{MemBW: 0.75}))
			s.AddKernel(0, k("b", 30, -1, Demand{MemBW: 0.5}))
			s.AddKernel(0, k("z", 15, 2, Demand{}))
			s.AddKernel(0, k("w", 4, -1, Demand{}))
		},
		check: func(t *testing.T, ops []OpRecord) {
			if ops[2].End != 17 || ops[3].End != 4 {
				t.Errorf("z ends at %v (want 17), w at %v (want 4)", ops[2].End, ops[3].End)
			}
		},
	}} {
		t.Run(c.name, func(t *testing.T) {
			got, _ := checkBothModes(t, i, func(timelines bool) *Sim {
				s := NewSim(ClusterConfig{NumGPUs: 1, Policy: FairShare, Timelines: timelines})
				c.build(s)
				return s
			})
			c.check(t, got.Ops)
		})
	}
}
