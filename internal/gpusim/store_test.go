package gpusim

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"rap/internal/topo"
)

// pointerFree reports whether values of type t hold no pointer, so that
// an array of them is never scanned by the garbage collector.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default: // pointers, slices, strings, maps, interfaces, funcs, channels
		return false
	}
}

// TestOpStorePointerFree: the op store, its labels and the engine's
// per-resource user lists hold no pointer, so the garbage collector
// never scans them.
func TestOpStorePointerFree(t *testing.T) {
	for _, v := range []any{op{}, rtDemand{}, label{}, resUser{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// TestOpRecordSize pins the byte size of an op record, of a demand and
// of an op's result record, and that the result record holds no
// pointer. A fleet job's run holds about 108k ops and 81k demands, so a
// byte more per op is about 0.1 MB more per run, and a run that keeps
// its records holds one OpRecord per op; DESIGN.md §5's memory budget
// counts them. A new field must come with a new budget there, and a
// pointer in OpRecord would make the garbage collector scan every
// run's Result.Ops again.
func TestOpRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(op{}); got != 32 {
		t.Errorf("op is %d bytes, DESIGN.md §5 budgets 32", got)
	}
	if got := unsafe.Sizeof(rtDemand{}); got != 16 {
		t.Errorf("rtDemand is %d bytes, DESIGN.md §5 budgets 16", got)
	}
	if got := unsafe.Sizeof(OpRecord{}); got != 32 {
		t.Errorf("OpRecord is %d bytes, DESIGN.md §5 budgets 32", got)
	}
	if typ := reflect.TypeOf(OpRecord{}); !pointerFree(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
}

// TestAddAfterRunRejected: once a Sim has run, every Add* call and
// Stamp returns InvalidOp and leaves the store, the add error and the
// run's op ends as they were.
func TestAddAfterRunRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(s *Sim) OpID
	}{
		{"kernel", func(s *Sim) OpID { return s.AddKernel(0, Kernel{Work: 1}) }},
		{"comm", func(s *Sim) OpID { return s.AddComm("", 0, 1, 1e3) }},
		{"link_busy", func(s *Sim) OpID { return s.AddLinkBusy("", 0, 1e3) }},
		{"host_copy", func(s *Sim) OpID { return s.AddHostCopy("", 0, 1e3) }},
		{"cpu", func(s *Sim) OpID { return s.AddCPU("", 5, 1) }},
		{"barrier", func(s *Sim) OpID { return s.AddBarrier("") }},
		{"stamp", func(s *Sim) OpID { return s.Stamp(2) }},
		{"bad_kernel", func(s *Sim) OpID { return s.AddKernel(7, Kernel{Work: 1}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSim(ClusterConfig{NumGPUs: 2, EndTimesOnly: true})
			st := s.NewStream()
			a := s.AddKernel(0, Kernel{Work: 10}, WithStream(st))
			b := s.AddBarrier("", WithStream(st))
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			ops, dems, deps, ends := len(s.ops), len(s.dems), len(s.deps), len(s.depEnd)
			if id := c.add(s); id != InvalidOp {
				t.Fatalf("added op %d after Run", id)
			}
			if len(s.ops) != ops || len(s.dems) != dems || len(s.deps) != deps || len(s.depEnd) != ends ||
				len(s.stamps) != 0 || s.addErr != nil || s.streams[st] != int32(b) {
				t.Fatalf("the store changed: %d ops, %d demands, %d deps, %d stamps, add error %v", len(s.ops), len(s.dems), len(s.deps), len(s.stamps), s.addErr)
			}
			if got := s.OpEnd(b); got != s.OpEnd(a) || got != DefaultLaunchOverhead+10 {
				t.Fatalf("op ends changed: %v, %v", s.OpEnd(a), got)
			}
			if got := s.OpEnd(b + 1); got != 0 {
				t.Fatalf("OpEnd past the store = %v", got)
			}
		})
	}
}

// TestAddKernelAllocsOnceSized: once Grow has sized the store, adding a
// kernel with stream, dependency and priority options allocates nothing.
func TestAddKernelAllocsOnceSized(t *testing.T) {
	const runs = 100
	s := NewSim(ClusterConfig{NumGPUs: 2})
	st := s.NewStream()
	s.Grow(runs+2, 0, 2*(runs+2), 2*(runs+2))
	k := Kernel{Name: "k", Work: 1, Demand: Demand{SM: 0.5, MemBW: 0.5}}
	prev := s.AddKernel(1, k)
	allocs := testing.AllocsPerRun(runs, func() {
		prev = s.AddKernel(0, k, WithStream(st), WithDeps(prev), WithPriority(1))
	})
	if allocs != 0 {
		t.Fatalf("AddKernel allocated %v times per op", allocs)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowIgnoresNonPositive: a non-positive size reserves nothing
// instead of panicking.
func TestGrowIgnoresNonPositive(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	s.Grow(-1, -1, -1, -1)
	s.Grow(0, 0, 0, 0)
	if cap(s.ops) != 0 || cap(s.labels) != 0 || cap(s.depEnd) != 0 || cap(s.dems) != 0 || cap(s.deps) != 0 {
		t.Fatalf("Grow reserved room: ops %d, demands %d, deps %d", cap(s.ops), cap(s.dems), cap(s.deps))
	}
}

// TestOptionOutOfRangeRejected: the op store keeps stream handles,
// dependency ids and priorities as int32s, so an option whose value is
// not a stream of the Sim or does not fit is rejected at add time, like
// an out-of-range GPU, instead of aliasing another value.
func TestOptionOutOfRangeRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  OpOption
		want string
	}{
		{"stream", WithStream(Stream(1)), "unknown stream 1"},
		{"negative_stream", WithStream(Stream(-1)), "unknown stream -1"},
		{"dep", WithDeps(OpID(1 << 40)), "unknown op 1099511627776"},
		{"priority", WithPriority(1 << 40), "priority 1099511627776 out of range"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSim(ClusterConfig{NumGPUs: 1})
			s.NewStream()
			if id := s.AddKernel(0, Kernel{Name: "k", Work: 1}, c.opt); id != InvalidOp {
				t.Fatalf("accepted as op %d", id)
			}
			if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run error = %v, want %q", err, c.want)
			}
		})
	}
}

// TestEndTimesOnlyMatchesFullRecords replays the golden DAGs with and
// without EndTimesOnly. The end-times-only run returns no op results,
// but the same makespan, event count and timelines; every op's end read
// through OpEnd, in either mode, is the full run's Result.Ops[i].End.
func TestEndTimesOnlyMatchesFullRecords(t *testing.T) {
	for seed := int64(0); seed < goldenSeeds; seed++ {
		fullSim, leanSim := goldenDAG(seed, false), goldenDAG(seed, true)
		full, err := fullSim.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lean, err := leanSim.Run()
		if err != nil {
			t.Fatalf("seed %d end-times-only: %v", seed, err)
		}
		if lean.Ops != nil {
			t.Fatalf("seed %d: end-times-only run kept %d op results", seed, len(lean.Ops))
		}
		// Without its op results, the full run must digest like the
		// end-times-only one: makespan and timelines, bit for bit.
		stripped := *full
		stripped.Ops = nil
		if got, want := ResultDigest(lean), ResultDigest(&stripped); got != want || lean.Events != full.Events {
			t.Fatalf("seed %d: end-times-only digest %s, %d events; full %s, %d events",
				seed, got[:12], lean.Events, want[:12], full.Events)
		}
		for i, op := range full.Ops {
			id := OpID(i)
			want := math.Float64bits(op.End)
			if math.Float64bits(fullSim.OpEnd(id)) != want || math.Float64bits(leanSim.OpEnd(id)) != want {
				t.Fatalf("seed %d op %d: OpEnd %v (full) / %v (end-times-only), Result.Ops end %v",
					seed, i, fullSim.OpEnd(id), leanSim.OpEnd(id), op.End)
			}
		}
		if op := lean.OpByID(0); op != (OpResult{}) {
			t.Fatalf("seed %d: OpByID on an end-times-only result = %+v, want the zero OpResult", seed, op)
		}
	}
}

// TestOpEndZeroOutsideRun: OpEnd reads 0 before Run and for ids the
// Sim does not hold.
func TestOpEndZeroOutsideRun(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, EndTimesOnly: true})
	id := s.AddKernel(0, Kernel{Work: 3})
	if got := s.OpEnd(id); got != 0 {
		t.Fatalf("OpEnd before Run = %v", got)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.OpEnd(id); got != DefaultLaunchOverhead+3 {
		t.Fatalf("OpEnd = %v, want %v", got, DefaultLaunchOverhead+3)
	}
	for _, bad := range []OpID{InvalidOp, id + 1} {
		if got := s.OpEnd(bad); got != 0 {
			t.Fatalf("OpEnd(%d) = %v, want 0", bad, got)
		}
	}
}

// TestEndTimesOnlyErrorsNameOpIndex: deferred add errors and Run's
// dependency errors quote the offending op's name, as its iteration
// reads it (SetIteration), whether or not the Sim keeps op results.
func TestEndTimesOnlyErrorsNameOpIndex(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(s *Sim)
		want string
	}{
		{"work", func(s *Sim) { s.AddKernel(0, Kernel{Name: "k", Work: math.NaN()}) },
			`op "k": work NaN is not finite`},
		{"demand", func(s *Sim) { s.AddKernel(0, Kernel{Name: "k", Demand: Demand{MemBW: math.NaN()}}) },
			`op "k": MemBW demand is NaN`},
		{"bytes", func(s *Sim) { s.AddHostCopy("h", 0, math.Inf(1)) },
			`op "h": bytes +Inf is not finite`},
		{"stream", func(s *Sim) { s.AddBarrier("b", WithStream(Stream(5))) },
			`op "b": unknown stream 5`},
		{"priority", func(s *Sim) { s.AddKernel(0, Kernel{Name: "k"}, WithPriority(1<<40)) },
			`op "k": priority 1099511627776 out of range`},
		{"dep_range", func(s *Sim) { s.AddBarrier("b", WithDeps(OpID(1<<40))) },
			`op "b" depends on unknown op 1099511627776`},
		{"dep_unknown", func(s *Sim) { s.AddBarrier("b", WithDeps(7)) },
			`op "b" depends on unknown op 7`},
		{"dep_self", func(s *Sim) { s.AddBarrier("b", WithDeps(1)) },
			`op "b" depends on itself`},
		{"iteration_work", func(s *Sim) { s.SetIteration(4); s.AddCPU("b#/g0/prep", math.NaN(), 1) },
			`op "b4/g0/prep": micros NaN is not finite`},
		{"iteration_dep", func(s *Sim) { s.SetIteration(12); s.AddBarrier("it#/end", WithDeps(7)) },
			`op "it12/end" depends on unknown op 7`},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, lean := range []bool{false, true} {
				s := NewSim(ClusterConfig{NumGPUs: 1, EndTimesOnly: lean})
				s.AddBarrier("first")
				c.add(s)
				if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("EndTimesOnly=%v: Run error = %v, want %q", lean, err, c.want)
				}
			}
		})
	}
}

// periodicDAG adds iteration i of a pipeline whose iterations repeat:
// per GPU a kernel on the GPU's stream, gated on the previous
// iteration's barrier, then a collective and a cross-GPU transfer, all
// joined by the iteration's barrier. Every iteration from 1 on depends
// on ops exactly one iteration back, so it is iteration i-1 shifted.
// The ops are the Sim's iteration i, and their names and tags tell the
// GPUs and op kinds apart (a collective's tag set by WithTag).
func periodicDAG(s *Sim, streams []Stream, i int, prev OpID) OpID {
	g := s.Config().NumGPUs
	s.SetIteration(i)
	var ends []OpID
	for gpu := 0; gpu < g; gpu++ {
		var deps []OpID
		if i > 0 {
			deps = append(deps, prev)
		}
		k := s.AddKernel(gpu, Kernel{Name: "it#/k" + strconv.Itoa(gpu), Work: 10 + float64(3*gpu),
			Demand: Demand{SM: 0.4 + 0.1*float64(gpu), MemBW: 0.6}, Tag: []string{"train", "preproc"}[gpu%2]},
			WithStream(streams[gpu]), WithDeps(deps...), WithPriority(gpu%2))
		c := s.AddLinkBusy("it#/coll", gpu, 2e6, WithDeps(k), WithTag("collective"))
		ends = append(ends, s.AddComm("it#/comm", gpu, (gpu+1)%g, 1e6, WithDeps(c)))
	}
	ends = append(ends, s.AddCPU("it#/cpu", 7, 4, WithStream(streams[g])))
	return s.AddBarrier("it#", WithDeps(ends...))
}

// TestStampMatchesBuilt: on a 2-node topology, stamping iterations 2–7
// of periodicDAG stores the ops, demands and dependencies building them
// stores, reuses the sources' demand spans, derives the copies'
// dependencies and labels instead of storing them, advances the stream
// tails, and runs to the same op names, tags, starts and ends,
// makespan, events and timelines.
func TestStampMatchesBuilt(t *testing.T) {
	const gpus, iters = 4, 8
	newSim := func() (*Sim, []Stream) {
		s := NewSim(ClusterConfig{NumGPUs: gpus, Timelines: true})
		tp := topo.Uniform(2, gpus/2)
		tp.FabricGBs, tp.Oversub = 100, 2
		if err := s.SetTopology(tp); err != nil {
			t.Fatal(err)
		}
		return s, newStreams(s, gpus+1)
	}
	built, bs := newSim()
	stamped, ss := newSim()
	var bEnd, sEnd OpID
	for i := 0; i < iters; i++ {
		bEnd = periodicDAG(built, bs, i, bEnd)
		if i < 2 {
			sEnd = periodicDAG(stamped, ss, i, sEnd)
			continue
		}
		n := len(stamped.ops) / i
		if first := stamped.Stamp(n); first != OpID(len(stamped.ops)-n) {
			t.Fatalf("iteration %d: Stamp returned %d, want %d", i, first, len(stamped.ops)-n)
		}
	}
	if len(stamped.ops) != len(built.ops) || !slices.Equal(stamped.streams, built.streams) {
		t.Fatalf("stamped %d ops, streams %v; built %d ops, streams %v", len(stamped.ops), stamped.streams, len(built.ops), built.streams)
	}
	if len(stamped.dems)*iters != len(built.dems)*2 {
		t.Fatalf("stamped store holds %d demands, built %d: stamps must reuse their sources'", len(stamped.dems), len(built.dems))
	}
	if builtOps := len(stamped.ops) * 2 / iters; len(stamped.depEnd) != builtOps || len(stamped.labels) != builtOps ||
		len(stamped.deps) != int(stamped.depEnd[builtOps-1]) {
		t.Fatalf("stamped store holds dependencies of %d ops and labels of %d, want only the %d built ones'",
			len(stamped.depEnd), len(stamped.labels), builtOps)
	}
	for i := range built.ops {
		b, s := built.ops[i], stamped.ops[i]
		b.demOff, s.demOff = 0, 0
		if b != s || !slices.Equal(built.ops[i].demandsIn(built.dems), stamped.ops[i].demandsIn(stamped.dems)) ||
			!slices.Equal(built.depsOf(i), stamped.depsOf(i)) {
			t.Fatalf("op %d: stamped %+v deps %v, built %+v deps %v", i, s, stamped.depsOf(i), b, built.depsOf(i))
		}
	}
	want, err := built.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := stamped.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ResultDigest(got) != ResultDigest(want) || got.Events != want.Events || len(got.Ops) != len(want.Ops) {
		t.Fatalf("stamped run digest %s, %d events; built %s, %d events", ResultDigest(got)[:12], got.Events, ResultDigest(want)[:12], want.Events)
	}
	for i := range got.Ops {
		if g, w := got.OpByID(OpID(i)), want.OpByID(OpID(i)); g != w {
			t.Fatalf("op %d: stamped %+v, built %+v", i, g, w)
		}
	}
	if op := got.OpByID(OpID(len(got.Ops) - 2)); op.Name != "it7/cpu" || op.Tag != "cpu" {
		t.Fatalf("iteration 7's CPU op reads %q, tag %q", op.Name, op.Tag)
	}
	for i := range built.ops {
		if b, s := built.OpEnd(OpID(i)), stamped.OpEnd(OpID(i)); math.Float64bits(b) != math.Float64bits(s) {
			t.Fatalf("op %d ends at %v stamped, %v built", i, s, b)
		}
	}
}

// TestStampMixedSpans: stamps of one and of two iterations, the later
// ones copying copies, then an op added after them, give the
// dependencies that building the iterations stores, and run to the
// same op ends.
func TestStampMixedSpans(t *testing.T) {
	const gpus, iters = 3, 7
	newSim := func() (*Sim, []Stream) {
		s := NewSim(ClusterConfig{NumGPUs: gpus, EndTimesOnly: true})
		return s, newStreams(s, gpus+1)
	}
	built, bs := newSim()
	var end OpID
	for i := 0; i < iters; i++ {
		end = periodicDAG(built, bs, i, end)
	}
	stamped, ss := newSim()
	end = periodicDAG(stamped, ss, 0, 0)
	periodicDAG(stamped, ss, 1, end)
	n := len(stamped.ops) / 2
	for _, k := range []int{1, 2, 1, 1} { // iterations 2, 3–4, 5 and 6
		stamped.Stamp(k * n)
	}
	// An op added after the stamps stores its dependencies again.
	for _, s := range []*Sim{built, stamped} {
		last := OpID(len(s.ops) - 1)
		s.AddBarrier("", WithDeps(last, last-OpID(n)), WithStream(Stream(0)))
	}
	if len(stamped.ops) != len(built.ops) || len(stamped.stamps) != 3 {
		t.Fatalf("stamped %d ops in %d spans, built %d", len(stamped.ops), len(stamped.stamps), len(built.ops))
	}
	for i := range built.ops {
		if !slices.Equal(built.depsOf(i), stamped.depsOf(i)) {
			t.Fatalf("op %d: stamped deps %v, built %v", i, stamped.depsOf(i), built.depsOf(i))
		}
	}
	if _, err := built.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := stamped.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range built.ops {
		if b, s := built.OpEnd(OpID(i)), stamped.OpEnd(OpID(i)); math.Float64bits(b) != math.Float64bits(s) {
			t.Fatalf("op %d ends at %v stamped, %v built", i, s, b)
		}
	}
}

// TestStampRejected: Stamp of a span outside the store returns
// InvalidOp, leaves the store as it was and records an error Run
// reports.
func TestStampRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		want string
	}{
		{"zero", 0, "Stamp of 0 ops from a store of 2"},
		{"negative", -1, "Stamp of -1 ops from a store of 2"},
		{"past_store", 3, "Stamp of 3 ops from a store of 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSim(ClusterConfig{NumGPUs: 1})
			st := s.NewStream()
			s.AddKernel(0, Kernel{Work: 1}, WithStream(st))
			s.AddBarrier("", WithStream(st))
			if id := s.Stamp(c.n); id != InvalidOp {
				t.Fatalf("Stamp(%d) = %d, want InvalidOp", c.n, id)
			}
			if len(s.ops) != 2 || len(s.depEnd) != 2 || s.streams[st] != 1 {
				t.Fatalf("rejected Stamp changed the store: %d ops, %d dep ends, stream tail %d", len(s.ops), len(s.depEnd), s.streams[st])
			}
			if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run error = %v, want %q", err, c.want)
			}
		})
	}
	empty := NewSim(ClusterConfig{NumGPUs: 1})
	if id := empty.Stamp(1); id != InvalidOp {
		t.Fatalf("Stamp on an empty store = %d, want InvalidOp", id)
	}
	if _, err := empty.Run(); err == nil || !strings.Contains(err.Error(), "Stamp of 1 ops from a store of 0") {
		t.Fatalf("Run error = %v", err)
	}
}

// TestSetIterationNames: an op reads its name with its iteration in
// place of the name's first '#', 0 before the first SetIteration; ops
// of one name, tag and iteration share one label and iteration, a name
// without '#' reads as added, and SetIteration clamps to [0, MaxInt32].
func TestSetIterationNames(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	s.AddBarrier("b#/g0/prep")
	s.SetIteration(3)
	s.AddBarrier("b#/g0/prep#")
	s.AddBarrier("b#/g0/prep#")
	s.AddBarrier("end#", WithTag("preproc"))
	s.AddBarrier("init")
	s.SetIteration(-5)
	s.AddBarrier("it#/end")
	s.SetIteration(math.MaxInt32 + 1)
	s.AddBarrier("it#")
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var names, tags []string
	for i := range res.Ops {
		op := res.OpByID(OpID(i))
		names, tags = append(names, op.Name), append(tags, op.Tag)
	}
	if want := []string{"b0/g0/prep", "b3/g0/prep#", "b3/g0/prep#", "end3", "init", "it0/end", "it2147483647"}; !slices.Equal(names, want) {
		t.Fatalf("names %q, want %q", names, want)
	}
	if want := []string{"sync", "sync", "sync", "preproc", "sync", "sync", "sync"}; !slices.Equal(tags, want) {
		t.Fatalf("tags %q, want %q", tags, want)
	}
	if res.Ops[1].Label != res.Ops[2].Label || res.Ops[1].Iter != res.Ops[2].Iter {
		t.Fatalf("ops of one name, tag and iteration hold records %+v and %+v", res.Ops[1], res.Ops[2])
	}
}
