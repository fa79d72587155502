package sched

import (
	"math"
	"reflect"
	"testing"

	"rap/internal/chaos"
	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// TestWarmupSentinel covers the Warmup:0 regression: the zero value
// means "default of 2", and NoWarmup requests an actual zero-warmup
// window measured from t=0.
func TestWarmupSentinel(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(warmup int) *PipelineStats {
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{
			Iterations: 4,
			Warmup:     warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	def := run(0)
	wantDef := (def.IterEnds[3] - def.IterEnds[1]) / 2
	if math.Abs(def.SteadyIterLatency-wantDef) > 1e-9 {
		t.Fatalf("default warmup: steady latency %f, want 2-warmup window %f", def.SteadyIterLatency, wantDef)
	}

	none := run(NoWarmup)
	wantNone := none.IterEnds[3] / 4
	if math.Abs(none.SteadyIterLatency-wantNone) > 1e-9 {
		t.Fatalf("NoWarmup: steady latency %f, want full-run window %f", none.SteadyIterLatency, wantNone)
	}

	// Any negative value behaves like the sentinel.
	minus := run(-3)
	if math.Abs(minus.SteadyIterLatency-none.SteadyIterLatency) > 1e-9 {
		t.Fatalf("Warmup -3 diverged from NoWarmup: %f vs %f", minus.SteadyIterLatency, none.SteadyIterLatency)
	}
}

// TestPipelineEngineMatrix composes the awkward corners in one matrix:
// a seeded chaos plan (capacity windows + straggler inflation), the
// NoWarmup sentinel and a single-iteration run — every {chaos} ×
// {Iterations:1+NoWarmup, Iterations:3} cell runs twice, and the two
// runs must agree bit-exactly on gpusim.ResultDigest (op timings,
// utilization segments with tag attribution, host segments), on the
// event count and on the steady iteration latency. This carries the
// gpusim engine's determinism contract up through the pipeline
// builder, on real pipeline DAGs rather than synthetic golden ones.
func TestPipelineEngineMatrix(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(1, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(iters, warmup int, cp *chaos.Plan) *PipelineStats {
		t.Helper()
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{
			Iterations: iters,
			Warmup:     warmup,
			Chaos:      cp,
		})
		if err != nil {
			t.Fatalf("iters %d warmup %d: %v", iters, warmup, err)
		}
		return stats
	}

	// Horizon for the chaos plan from an unperturbed probe run.
	horizon := run(3, 0, nil).Result.Makespan
	cp, err := chaos.NewPlan(17, chaos.Scenario{NumGPUs: n, HorizonUs: horizon, Severity: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Straggler.Prob <= 0 {
		t.Fatalf("severity-0.6 plan carries no stragglers; the matrix needs them")
	}

	for _, plan := range []*chaos.Plan{nil, cp} {
		for _, shape := range []struct{ iters, warmup int }{{1, NoWarmup}, {3, 0}} {
			x := run(shape.iters, shape.warmup, plan)
			y := run(shape.iters, shape.warmup, plan)
			if dx, dy := gpusim.ResultDigest(x.Result), gpusim.ResultDigest(y.Result); dx != dy {
				t.Errorf("chaos=%v iters=%d: digest %s != rerun %s", plan != nil, shape.iters, dx[:12], dy[:12])
			}
			if x.Result.Events != y.Result.Events {
				t.Errorf("chaos=%v iters=%d: %d events != rerun %d", plan != nil, shape.iters, x.Result.Events, y.Result.Events)
			}
			if x.SteadyIterLatency != y.SteadyIterLatency {
				t.Errorf("chaos=%v iters=%d: steady latency %v != rerun %v",
					plan != nil, shape.iters, x.SteadyIterLatency, y.SteadyIterLatency)
			}
		}
	}
}

// TestPipelineChaosDeterministic runs the full pipeline builder under a
// seeded perturbation plan twice: results must be deeply equal, strictly
// slower than the unperturbed run, and a nil plan must stay bit-identical
// to no plan at all.
func TestPipelineChaosDeterministic(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(cp *chaos.Plan) *PipelineStats {
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{
			Iterations: 3,
			Chaos:      cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	base := run(nil)
	baseHorizon := base.Result.Makespan

	cp, err := chaos.NewPlan(42, chaos.Scenario{NumGPUs: n, HorizonUs: baseHorizon, Severity: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(cp), run(cp)
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("chaos pipeline runs with identical plan diverged")
	}
	if a.Result.Makespan <= baseHorizon {
		t.Fatalf("severity-0.7 plan did not stretch the pipeline: %f <= %f", a.Result.Makespan, baseHorizon)
	}

	again := run(nil)
	if !reflect.DeepEqual(base.Result, again.Result) {
		t.Fatal("nil chaos plan perturbed the pipeline")
	}
}
