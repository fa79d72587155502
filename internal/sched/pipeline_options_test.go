package sched

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rap/internal/gpusim"
	"rap/internal/preproc"
	"rap/internal/topo"
)

// TestWarmupSentinel: the steady-state window excludes the two warmup
// iterations, and a single-iteration run clamps the warmup to zero and
// measures the whole run from t=0.
func TestWarmupSentinel(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(iters int) *PipelineStats {
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	def := run(4)
	wantDef := (def.IterEnds[3] - def.IterEnds[1]) / 2
	if math.Abs(def.SteadyIterLatency-wantDef) > 1e-9 {
		t.Fatalf("default warmup: steady latency %f, want 2-warmup window %f", def.SteadyIterLatency, wantDef)
	}

	one := run(1)
	if math.Abs(one.SteadyIterLatency-one.IterEnds[0]) > 1e-9 {
		t.Fatalf("single iteration: steady latency %f, want full-run window %f", one.SteadyIterLatency, one.IterEnds[0])
	}
}

// TestPipelineEngineMatrix composes the awkward corners in one matrix:
// a congested inter-node fabric (FabricScale on a 2-node topology) and
// a single-iteration run, whose warmup clamps to zero — every
// {FabricScale} × {Iterations:1, Iterations:3} cell runs twice, and the two
// runs must agree bit-exactly on gpusim.ResultDigest (op timings,
// per-GPU utilization segments, host segments), on the
// event count and on the steady iteration latency. This carries the
// gpusim engine's determinism contract up through the pipeline
// builder, on real pipeline DAGs rather than synthetic golden ones.
// The congested cells must also run longer than the uncongested ones,
// and an all-ones scale must match nil bit for bit.
func TestPipelineEngineMatrix(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(1, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(iters int, fabricScale []float64) *PipelineStats {
		t.Helper()
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n, Timelines: true}, cfg, pl, work, PipelineOptions{
			Iterations:  iters,
			Topology:    topo.Uniform(2, 1),
			FabricScale: fabricScale,
		})
		if err != nil {
			t.Fatalf("iters %d: %v", iters, err)
		}
		return stats
	}

	for _, scale := range [][]float64{nil, {0.5, 1}} {
		for _, iters := range []int{1, 3} {
			x := run(iters, scale)
			y := run(iters, scale)
			if dx, dy := gpusim.ResultDigest(x.Result), gpusim.ResultDigest(y.Result); dx != dy {
				t.Errorf("scale=%v iters=%d: digest %s != rerun %s", scale, iters, dx[:12], dy[:12])
			}
			if x.Result.Events != y.Result.Events {
				t.Errorf("scale=%v iters=%d: %d events != rerun %d", scale, iters, x.Result.Events, y.Result.Events)
			}
			if x.SteadyIterLatency != y.SteadyIterLatency {
				t.Errorf("scale=%v iters=%d: steady latency %v != rerun %v",
					scale, iters, x.SteadyIterLatency, y.SteadyIterLatency)
			}
		}
	}
	for _, iters := range []int{1, 3} {
		base := run(iters, nil)
		if ones := run(iters, []float64{1, 1}); gpusim.ResultDigest(ones.Result) != gpusim.ResultDigest(base.Result) {
			t.Errorf("iters=%d: all-ones fabric scale perturbed the run", iters)
		}
		if slow := run(iters, []float64{0.5, 1}); !(slow.Result.Makespan > base.Result.Makespan) {
			t.Errorf("iters=%d: congested fabric did not stretch the run: %g <= %g",
				iters, slow.Result.Makespan, base.Result.Makespan)
		}
	}
}

// TestFabricScaleRejectsBadInput: every malformed FabricScale is an
// error from BuildAndRun, never a panic or a silently ignored entry.
func TestFabricScaleRejectsBadInput(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	work := buildWork(t, cm, splitGraphs(preproc.MustStandardPlan(0, nil), n), 4096)

	cases := []struct {
		name  string
		tp    *topo.Topology
		scale []float64
		want  string
	}{
		{"NaN", topo.Uniform(2, 1), []float64{math.NaN()}, "outside (0,1]"},
		{"zero", topo.Uniform(2, 1), []float64{1, 0}, "outside (0,1]"},
		{"negative", topo.Uniform(2, 1), []float64{-1}, "outside (0,1]"},
		{"above one", topo.Uniform(2, 1), []float64{1.5}, "outside (0,1]"},
		{"more entries than nodes", topo.Uniform(2, 1), []float64{1, 1, 1}, "3 fabric scales for 2 topology nodes"},
		{"nil topology", nil, []float64{0.5}, "no inter-node fabric"},
		{"flat topology", topo.Uniform(1, n), []float64{0.5}, "no inter-node fabric"},
	}
	for _, c := range cases {
		_, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{
			Iterations:  2,
			Topology:    c.tp,
			FabricScale: c.scale,
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestCongestedPipelineDigests pins gpusim.ResultDigest of pipelines
// whose every topology node runs a congested fabric, so the way
// FabricScale reaches the engine's fabric capacities cannot drift
// silently. Each case must also differ from its uncongested run, or the
// pin would not cover the scale at all. The digests live in
// testdata/congested_pipeline_digests.txt; regenerate them deliberately
// with `go test ./internal/sched -run CongestedPipelineDigests -update`.
func TestCongestedPipelineDigests(t *testing.T) {
	cases := []struct {
		tp    *topo.Topology
		scale []float64
	}{
		{topo.Uniform(2, 1), []float64{0.5, 0.25}},
		{topo.Uniform(4, 1), []float64{1, 0.5, 1, 0.2}},
	}
	var digests strings.Builder
	for _, c := range cases {
		n := c.tp.NumGPUs()
		cfg, pl, cm := testSetup(t, n, 4096)
		work := buildWork(t, cm, splitGraphs(preproc.MustStandardPlan(1, nil), n), 4096)
		run := func(scale []float64) string {
			stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n, Timelines: true}, cfg, pl, work, PipelineOptions{
				Iterations:  3,
				Topology:    c.tp,
				FabricScale: scale,
			})
			if err != nil {
				t.Fatalf("%d nodes, scale %v: %v", c.tp.NumNodes(), scale, err)
			}
			return gpusim.ResultDigest(stats.Result)
		}
		got := run(c.scale)
		fmt.Fprintf(&digests, "nodes %d scale %v %s\n", c.tp.NumNodes(), c.scale, got)
		if got == run(nil) {
			t.Errorf("%d nodes, scale %v: congestion left the digest unchanged", c.tp.NumNodes(), c.scale)
		}
	}
	compareDigestFile(t, "congested_pipeline_digests.txt", digests.String())
}

var update = flag.Bool("update", false, "rewrite the testdata digest files from the current pipelines")

// compareDigestFile compares got, one pinned result per line, with
// testdata/<name>, or rewrites the file under -update.
func compareDigestFile(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\ngot:\n%swant:\n%s", path, got, want)
	}
}
