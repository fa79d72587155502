package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"rap/internal/gpusim"
	"rap/internal/preproc"
	"rap/internal/topo"
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

// TestStampedRunsMatchBuiltRuns: an end-times-only run stamps its
// iterations from stampFrom on, where a run that keeps names builds
// them all; over 1–12 iterations the two DAGs must run to the same op
// ends, makespan, events and timelines, bit for bit, for every kind of
// GPU work and pipeline option.
func TestStampedRunsMatchBuiltRuns(t *testing.T) {
	const n = 3
	cfg, pl, cm := testSetup(t, n, 4096)
	rap := buildWork(t, cm, splitGraphs(preproc.MustStandardPlan(1, nil), n), 4096)
	cpu := append([]GPUWork(nil), rap...)
	cpu[1] = GPUWork{CPUPreprocUs: 80, CPUPrepUs: 30, PrepBytes: 1e6}
	cpu[2].CPUPreprocUs = 40
	comm := append([]GPUWork(nil), rap...)
	comm[0] = GPUWork{InputCommBytes: 1e6}
	comm[2].InputCommBytes = 2e6
	fabric := topo.Uniform(n, 1)
	fabric.FabricGBs, fabric.Oversub = 100, 2
	for _, c := range []struct {
		name string
		work []GPUWork
		opts PipelineOptions
	}{
		{"interleave", rap, PipelineOptions{Interleave: true}},
		{"no_interleave", rap, PipelineOptions{}},
		{"sequential", rap, PipelineOptions{SequentialPreproc: true}},
		{"streams8", rap, PipelineOptions{Interleave: true, PreprocStreams: 8, PreprocPriority: 1}},
		{"cpu_preproc", cpu, PipelineOptions{Interleave: true}},
		{"comm_without_kernels", comm, PipelineOptions{Interleave: true}},
		{"fabric", rap, PipelineOptions{Interleave: true, Topology: fabric, FabricScale: []float64{0.5, 1, 0.25}}},
	} {
		for iters := 1; iters <= 12; iters++ {
			c.opts.Iterations = iters
			run := func(lean bool) (*pipelineBuilder, *gpusim.Result) {
				t.Helper()
				cluster := gpusim.ClusterConfig{NumGPUs: n, Timelines: true, EndTimesOnly: lean}.WithDefaults()
				b, err := newPipelineBuilder(cluster, cfg, pl, c.work, c.opts.withDefaults())
				if err != nil {
					t.Fatal(err)
				}
				if err := b.addIterations(); err != nil {
					t.Fatal(err)
				}
				res, err := b.sim.Run()
				if err != nil {
					t.Fatalf("%s, %d iterations, EndTimesOnly=%v: %v", c.name, iters, lean, err)
				}
				return b, res
			}
			lean, leanRes := run(true)
			full, fullRes := run(false)
			if !reflect.DeepEqual(lean.handles, full.handles) {
				t.Fatalf("%s, %d iterations: stamped handles differ from built ones", c.name, iters)
			}
			stripped := *fullRes
			stripped.Ops = nil
			if gpusim.ResultDigest(leanRes) != gpusim.ResultDigest(&stripped) || leanRes.Events != fullRes.Events {
				t.Fatalf("%s, %d iterations: stamped run makespan %v, %d events; built %v, %d events",
					c.name, iters, leanRes.Makespan, leanRes.Events, fullRes.Makespan, fullRes.Events)
			}
			if want := iters * full.iterOps(); len(fullRes.Ops) != want || lean.sim.OpEnd(gpusim.OpID(want-1)) == 0 {
				t.Fatalf("%s, %d iterations: %d ops built, want %d", c.name, iters, len(fullRes.Ops), want)
			}
			for _, op := range fullRes.Ops {
				if got := lean.sim.OpEnd(op.ID); math.Float64bits(got) != math.Float64bits(op.End) {
					t.Fatalf("%s, %d iterations: op %s ends at %v stamped, %v built", c.name, iters, op.Name, got, op.End)
				}
			}
		}
	}
}

// TestLowerWorkMatchesPerRunLowering: runs of work lowered once by
// LowerWork, with full records or end times only, are the runs of the
// work as given, op names, tags and ends included, bit for bit; the
// copy leaves work itself unlowered.
func TestLowerWorkMatchesPerRunLowering(t *testing.T) {
	const n = 3
	cfg, pl, cm := testSetup(t, n, 4096)
	work := buildWork(t, cm, splitGraphs(preproc.MustStandardPlan(1, nil), n), 4096)
	work[1] = GPUWork{CPUPreprocUs: 80, PrepBytes: 1e6}
	lowered := LowerWork(work)
	for g := range work {
		if work[g].lowered != nil || (work[g].Schedule != nil) != (lowered[g].lowered != nil) {
			t.Fatalf("gpu %d: LowerWork lowered the original or skipped the copy", g)
		}
	}
	for _, lean := range []bool{false, true} {
		cluster := gpusim.ClusterConfig{NumGPUs: n, Timelines: true, EndTimesOnly: lean}
		opts := PipelineOptions{Iterations: 5, Interleave: true, PreprocStreams: 2}
		want, err := BuildAndRun(cluster, cfg, pl, work, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildAndRun(cluster, cfg, pl, lowered, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gpusim.ResultDigest(got.Result) != gpusim.ResultDigest(want.Result) || !reflect.DeepEqual(got.IterEnds, want.IterEnds) {
			t.Fatalf("EndTimesOnly=%v: lowered once, makespan %v; per run %v", lean, got.Result.Makespan, want.Result.Makespan)
		}
		if !reflect.DeepEqual(got.Result.Ops, want.Result.Ops) {
			t.Fatalf("EndTimesOnly=%v: op results differ", lean)
		}
	}
}

// TestLoweredKernelPointerFree: a lowered kernel holds no pointer, so a
// plan's lowering (LowerWork) is an array the garbage collector never
// scans.
func TestLoweredKernelPointerFree(t *testing.T) {
	var check func(typ reflect.Type) bool
	check = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !check(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Float64, reflect.Int32:
			return true
		default:
			return false
		}
	}
	if typ := reflect.TypeOf(loweredKernel{}); !check(typ) {
		t.Fatalf("%v holds a pointer", typ)
	}
}
