package sched

import (
	"fmt"
	"testing"

	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// TestPipelineSingleIteration covers the Iterations:1 regression: with no
// warmup iteration, the steady-state window must fall back to the whole
// run instead of indexing IterEnds[-1].
func TestPipelineSingleIteration(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)
	stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IterEnds) != 1 {
		t.Fatalf("iter ends = %d, want 1", len(stats.IterEnds))
	}
	if stats.SteadyIterLatency != stats.IterEnds[0] {
		t.Fatalf("steady latency %f != full-run window %f", stats.SteadyIterLatency, stats.IterEnds[0])
	}
	if stats.Throughput <= 0 {
		t.Fatalf("throughput = %f", stats.Throughput)
	}
}

// TestPipelineNoPreprocInputComm covers the dropped-communication
// regression: a GPU with neither a kernel schedule nor CPU preprocessing
// must still schedule its mapping-induced input communication and gate
// the consuming iteration on it.
func TestPipelineNoPreprocInputComm(t *testing.T) {
	const n = 2
	cfg, pl, _ := testSetup(t, n, 4096)
	work := make([]GPUWork, n)
	work[0].InputCommBytes = 5e8 // 500 MB: clearly visible

	stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	named := func(name string) []gpusim.OpResult {
		var out []gpusim.OpResult
		for _, o := range stats.Result.Ops {
			if o.Name == name {
				out = append(out, o)
			}
		}
		return out
	}
	comms := named("b0/g0/input_comm")
	if len(comms) != 1 {
		t.Fatalf("input_comm ops for batch 0 = %d, want 1", len(comms))
	}
	// The communication must gate the iteration that consumes batch 0:
	// emb_lookup of iteration 0 cannot start before it completes.
	lookups := named("it0/g0/emb_lookup")
	if len(lookups) != 1 {
		t.Fatalf("emb_lookup ops = %d, want 1", len(lookups))
	}
	if lookups[0].Start < comms[0].End {
		t.Fatalf("iteration started at %f before input comm finished at %f", lookups[0].Start, comms[0].End)
	}

	// Every batch gets its communication, and iteration 0 — which must
	// wait for batch 0's transfer — finishes later than without it.
	for i := 1; i < 3; i++ {
		if got := len(named(fmt.Sprintf("b%d/g0/input_comm", i))); got != 1 {
			t.Fatalf("input_comm ops for batch %d = %d, want 1", i, got)
		}
	}
	base, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, make([]GPUWork, n), PipelineOptions{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.IterEnds[0] <= base.IterEnds[0] {
		t.Fatal("input communication on a no-preproc GPU had no cost")
	}
}

// TestIterOpsCountsEveryOp: the builder sizes the simulator's op store
// from iterOps before adding anything, so iterOps must count exactly
// the ops an iteration adds, for every kind of GPU work and option.
func TestIterOpsCountsEveryOp(t *testing.T) {
	const n = 3
	cfg, pl, cm := testSetup(t, n, 4096)
	rap := buildWork(t, cm, splitGraphs(preproc.MustStandardPlan(1, nil), n), 4096)
	mixed := append([]GPUWork(nil), rap...)
	mixed[1] = GPUWork{CPUPreprocUs: 80, PrepBytes: 1e6, InputCommBytes: 1e6}
	mixed[2].InputCommBytes = 1e6
	mixed[2].CPUPreprocUs = 40
	cluster := gpusim.ClusterConfig{NumGPUs: n}.WithDefaults()
	for _, c := range []struct {
		name string
		work []GPUWork
		opts PipelineOptions
	}{
		{"rap", rap, PipelineOptions{Iterations: 3, Interleave: true}},
		{"mixed", mixed, PipelineOptions{Iterations: 3, PreprocStreams: 3}},
		{"sequential", mixed, PipelineOptions{Iterations: 2, SequentialPreproc: true}},
		{"idle", make([]GPUWork, n), PipelineOptions{Iterations: 1}},
	} {
		b, err := newPipelineBuilder(cluster, cfg, pl, c.work, c.opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := BuildAndRun(cluster, cfg, pl, c.work, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(stats.Result.Ops), c.opts.Iterations*b.iterOps(); got != want {
			t.Errorf("%s: %d ops, iterOps counts %d", c.name, got, want)
		}
	}
}
