package gpusim

import (
	"math"
	"testing"
)

// TestGoldenEquivalence replays every seeded random DAG through both the
// optimized engine and the preserved reference implementation and
// requires bit-identical Results: op timings, makespan, utilization
// segments and host-pool segments. Unlike
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
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("seed %d: %d ops != reference %d", seed, len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.ID != w.ID || g.Name != w.Name || g.Tag != w.Tag || g.GPU != w.GPU ||
			!bitEq(g.Start, w.Start) || !bitEq(g.End, w.End) {
			t.Errorf("seed %d: op %d: %+v != reference %+v", seed, i, g, w)
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
