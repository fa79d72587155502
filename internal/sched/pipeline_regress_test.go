package sched

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rap/internal/dlrm"
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
		for i := range stats.Result.Ops {
			if o := stats.Result.OpByID(gpusim.OpID(i)); o.Name == name {
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

// stampCaseGPUs is the cluster size of every stampCases case.
const stampCaseGPUs = 3

// stampCase is one kind of GPU work under one set of pipeline options.
type stampCase struct {
	name string
	work []GPUWork
	opts PipelineOptions
}

// stampCases returns the model and placement of a cluster of
// stampCaseGPUs GPUs, and cases that cover every kind of GPU work and
// pipeline option a pipeline iteration is built from: interleaved or
// not, sequential, several preprocessing streams, CPU preprocessing,
// input communication without kernels, and a congested 3-node fabric.
func stampCases(t *testing.T) (dlrm.Config, dlrm.Placement, []stampCase) {
	const n = stampCaseGPUs
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
	return cfg, pl, []stampCase{
		{"interleave", rap, PipelineOptions{Interleave: true}},
		{"no_interleave", rap, PipelineOptions{}},
		{"sequential", rap, PipelineOptions{SequentialPreproc: true}},
		{"streams8", rap, PipelineOptions{Interleave: true, PreprocStreams: 8, PreprocPriority: 1}},
		{"cpu_preproc", cpu, PipelineOptions{Interleave: true}},
		{"comm_without_kernels", comm, PipelineOptions{Interleave: true}},
		{"fabric", rap, PipelineOptions{Interleave: true, Topology: fabric, FabricScale: []float64{0.5, 1, 0.25}}},
	}
}

// TestNamedRunDigests pins gpusim.ResultDigest of a 12-iteration run of
// every stampCases case, op names, tags, starts and timelines included,
// so the names and times of iterations past the first few cannot drift
// silently. The digests live in testdata/named_run_digests.txt;
// regenerate them deliberately with
// `go test ./internal/sched -run NamedRunDigests -update`.
func TestNamedRunDigests(t *testing.T) {
	cfg, pl, cases := stampCases(t)
	var digests strings.Builder
	for _, c := range cases {
		c.opts.Iterations = 12
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: stampCaseGPUs, Timelines: true}, cfg, pl, c.work, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&digests, "%s %d ops %s\n", c.name, len(stats.Result.Ops), gpusim.ResultDigest(stats.Result))
	}
	compareDigestFile(t, "named_run_digests.txt", digests.String())
}

// buildReference is BuildAndRun's builder with every iteration built by
// addIteration and none stamped: the DAG the stamped iterations must
// reproduce. Like cluster's simulateReference, it is kept only to check
// BuildAndRun against.
func buildReference(cluster gpusim.ClusterConfig, cfg dlrm.Config, pl dlrm.Placement, work []GPUWork, opts PipelineOptions) (*pipelineBuilder, error) {
	opts = opts.withDefaults()
	b, err := newPipelineBuilder(cluster.WithDefaults(), cfg, pl, work, opts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.Iterations; i++ {
		if err := b.addIteration(i); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// checkStampedMatchesBuilt runs a pipeline as BuildAndRun builds it,
// stamping its iterations from stampFrom on, and as buildReference
// builds it, both with op results kept whatever cluster asks, and
// reports the first difference: in the iteration handles, the op
// results (names, tags, GPUs, starts and ends, bit for bit), the
// makespan, the timelines (when cluster asks for them) or the events.
func checkStampedMatchesBuilt(cluster gpusim.ClusterConfig, cfg dlrm.Config, pl dlrm.Placement, work []GPUWork, opts PipelineOptions) error {
	cluster.EndTimesOnly = false
	cluster = cluster.WithDefaults()
	opts = opts.withDefaults()
	stamped, err := newPipelineBuilder(cluster, cfg, pl, work, opts)
	if err != nil {
		return err
	}
	if err := stamped.addIterations(); err != nil {
		return err
	}
	built, err := buildReference(cluster, cfg, pl, work, opts)
	if err != nil {
		return err
	}
	got, err := stamped.sim.Run()
	if err != nil {
		return err
	}
	want, err := built.sim.Run()
	if err != nil {
		return fmt.Errorf("built: %w", err)
	}
	if !reflect.DeepEqual(stamped.handles, built.handles) {
		return fmt.Errorf("stamped iteration handles differ from built ones")
	}
	if n := opts.Iterations * built.iterOps(); len(got.Ops) != n || len(want.Ops) != n {
		return fmt.Errorf("%d ops stamped, %d built, want %d", len(got.Ops), len(want.Ops), n)
	}
	// Names are rendered into two reused buffers, not through OpByID,
	// which allocates a string per op of every fleet shape's runs.
	var gotName, wantName []byte
	for i := range got.Ops {
		g, w := &got.Ops[i], &want.Ops[i]
		gl, wl := &got.Labels[g.Label], &want.Labels[w.Label]
		gotName, wantName = gl.AppendName(gotName[:0], g.Iter), wl.AppendName(wantName[:0], w.Iter)
		if !bytes.Equal(gotName, wantName) || gl.Tag != wl.Tag || g.GPU != w.GPU ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) || math.Float64bits(g.End) != math.Float64bits(w.End) {
			return fmt.Errorf("op %d stamped %+v, built %+v", i, got.OpByID(gpusim.OpID(i)), want.OpByID(gpusim.OpID(i)))
		}
	}
	// The ops compared, the digests cover the makespan and timelines.
	gotRest, wantRest := *got, *want
	gotRest.Ops, wantRest.Ops = nil, nil
	if gpusim.ResultDigest(&gotRest) != gpusim.ResultDigest(&wantRest) || got.Events != want.Events {
		return fmt.Errorf("stamped run makespan %v, %d events; built %v, %d events (or their timelines differ)",
			got.Makespan, got.Events, want.Makespan, want.Events)
	}
	return nil
}

// TestStampedRunsMatchBuiltRuns: BuildAndRun stamps its iterations from
// stampFrom on; over 1–12 iterations of every stampCases case, the
// stamped run must be the run with every iteration built, op names,
// tags, starts and ends, handles, makespan, events and timelines, bit
// for bit.
func TestStampedRunsMatchBuiltRuns(t *testing.T) {
	cfg, pl, cases := stampCases(t)
	for _, c := range cases {
		for iters := 1; iters <= 12; iters++ {
			c.opts.Iterations = iters
			cluster := gpusim.ClusterConfig{NumGPUs: stampCaseGPUs, Timelines: true}
			if err := checkStampedMatchesBuilt(cluster, cfg, pl, c.work, c.opts); err != nil {
				t.Fatalf("%s, %d iterations: %v", c.name, iters, err)
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
		if len(got.Result.Ops) != len(want.Result.Ops) {
			t.Fatalf("EndTimesOnly=%v: %d op records, want %d", lean, len(got.Result.Ops), len(want.Result.Ops))
		}
		for i := range got.Result.Ops {
			if g, w := got.Result.OpByID(gpusim.OpID(i)), want.Result.OpByID(gpusim.OpID(i)); g != w {
				t.Fatalf("EndTimesOnly=%v: op %d %+v, want %+v", lean, i, g, w)
			}
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
