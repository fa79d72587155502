package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rap/internal/dlrm"
	"rap/internal/topo"
)

// patternTopo returns a topology of gpus GPUs in block order over nodes
// nodes, behind the fleet benchmark's fabric (100 GB/s, 4×
// oversubscribed); nil for one node.
func patternTopo(t *testing.T, gpus, nodes int) *topo.Topology {
	t.Helper()
	if nodes == 1 {
		return nil
	}
	nodeOf := make([]int, gpus)
	for g := range nodeOf {
		nodeOf[g] = g * nodes / gpus
	}
	tp, err := topo.FromNodeOf(nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	tp.FabricGBs = 100
	tp.Oversub = 4
	return tp
}

// TestMinDurationBound: for every menu shape on one to three nodes,
// with every node's fabric at scale 1, ½ or ¼, a job of 1–9 iterations
// simulates to at least minDuration, the lower bound the fleet loop
// schedules by (DESIGN.md §10). It logs the smallest ratio of a
// simulated iteration gap to IterationSoloLatency per layout.
func TestMinDurationBound(t *testing.T) {
	for _, shape := range shapeMenu {
		t.Run(fmt.Sprintf("%s-%d-%dgpu", shape.Dataset, shape.PlanIdx, shape.GPUs), func(t *testing.T) {
			t.Parallel()
			ps, err := buildPlan(shape)
			if err != nil {
				t.Fatal(err)
			}
			for nodes := 1; nodes <= min(3, shape.GPUs); nodes++ {
				t.Run(fmt.Sprintf("%d-node", nodes), func(t *testing.T) {
					t.Parallel()
					tp := patternTopo(t, shape.GPUs, nodes)
					scales := [][]float64{nil}
					for _, f := range []float64{0.5, 0.25} {
						if nodes > 1 {
							scale := make([]float64, nodes)
							for n := range scale {
								scale[n] = f
							}
							scales = append(scales, scale)
						}
					}
					minGap := math.Inf(1)
					for _, scale := range scales {
						// A job of 9 iterations extrapolates the run of 8.
						for simIters := 1; simIters <= simIterations; simIters++ {
							st, err := ps.fw.ExecuteTopo(ps.plan, simIters, tp, scale)
							if err != nil {
								t.Fatal(err)
							}
							last := simIters
							if simIters == simIterations {
								last = 9
							}
							for iters := simIters; iters <= last; iters++ {
								j := Job{Shape: shape}
								j.Shape.Iterations = iters
								dur, err := jobDuration(j, 0, simIters, durEntry{makespanUs: st.Result.Makespan, steadyUs: st.SteadyIterLatency})
								if err != nil {
									t.Fatal(err)
								}
								if lo := ps.minDuration(iters); dur < lo {
									t.Fatalf("scale %v, %d iterations: simulated %v µs, under the bound %v µs", scale, iters, dur, lo)
								}
							}
							prev := 0.0
							for _, end := range st.IterEnds {
								minGap = min(minGap, (end-prev)/ps.iterSoloUs)
								prev = end
							}
						}
					}
					t.Logf("smallest iteration gap %.4f × IterationSoloLatency", minGap)
				})
			}
		})
	}
}

// TestBoundSlackCoversTolerance: the ε of minDuration exceeds what the
// engine's completion tolerance can take off one iteration of any menu
// plan: soloTol (2·timeEps/minSpeed, gpusim's per-op margin) for each
// op of a GPU's stage chain.
func TestBoundSlackCoversTolerance(t *testing.T) {
	const soloTol = 2e-6 //rap:unit us
	for _, shape := range shapeMenu {
		ps, err := buildPlan(shape)
		if err != nil {
			t.Fatal(err)
		}
		if slack, need := boundSlack*ps.iterSoloUs, soloTol*dlrm.NumStages; !(slack > need) {
			t.Errorf("%+v: ε·IterationSoloLatency = %v µs, under the %v µs a stage chain may end early", shape, slack, need)
		}
	}
}

// TestWindowSpansInstants: with plans cached, jobs that start at
// different instants before the first one's bound resolve in one
// batch, and the report is still the sequential reference's.
func TestWindowSpansInstants(t *testing.T) {
	fleet := topo.Uniform(2, 4)
	fleet.FabricGBs = 20
	fleet.Oversub = 2
	jobs := []Job{
		mixedJob(0, 0, 1, 30), mixedJob(1, 50, 2, 20), mixedJob(2, 120, 0, 10),
		mixedJob(3, 130, 2, 6), mixedJob(4, 131, 3, 4), mixedJob(5, 5e4, 0, 3),
	}
	for _, pol := range []Policy{Pack{}, FirstFit{}} {
		s, err := New(Config{Topo: fleet, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Simulate(jobs); err != nil { // fills the plan cache
			t.Fatal(err)
		}
		widest := 0
		s.onResolve = func(pending []pendingJob) {
			instants := map[float64]bool{}
			for _, p := range pending {
				instants[p.startUs] = true
			}
			widest = max(widest, len(instants))
		}
		rep, err := s.Simulate(jobs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(Config{Topo: fleet, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		want, err := simulateReference(ref, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Digest() != want.Digest() {
			t.Fatalf("%s: Simulate and the reference disagree:\n%+v\nvs\n%+v", pol.Name(), rep, want)
		}
		if widest < 3 {
			t.Fatalf("%s: the widest resolve covered %d start instants, want 3", pol.Name(), widest)
		}
	}
}

// TestConcurrentRunsOfOnePlan: simulations of one cached plan run on
// several goroutines at once, as resolvePending runs them, and each
// gives what it gives alone. Under -race this checks that ExecuteTopo
// shares a plan safely.
func TestConcurrentRunsOfOnePlan(t *testing.T) {
	ps, err := buildPlan(mixedJob(0, 0, 3, 1).Shape)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []struct {
		tp    *topo.Topology
		scale []float64
	}{{nil, nil}, {patternTopo(t, 2, 2), nil}, {patternTopo(t, 2, 2), []float64{0.5, 1}}, {nil, nil}}
	want := make([]float64, len(layouts))
	for i, l := range layouts {
		st, err := ps.fw.ExecuteTopo(ps.plan, 4, l.tp, l.scale)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st.Result.Makespan
	}
	got := make([]float64, len(layouts))
	var wg sync.WaitGroup
	for i, l := range layouts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, err := ps.fw.ExecuteTopo(ps.plan, 4, l.tp, l.scale); err == nil {
				got[i] = st.Result.Makespan
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("layout %d: concurrent run makespan %v, alone %v", i, got[i], want[i])
		}
	}
}
