package gpusim

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// TestOpStorePointerFree: the op store and the engine's per-resource
// user lists hold no pointer, so the garbage collector never scans them.
func TestOpStorePointerFree(t *testing.T) {
	for _, v := range []any{op{}, rtDemand{}, resUser{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// TestAddKernelAllocsOnceSized: once Grow has sized the store, adding a
// kernel with stream, dependency and priority options allocates nothing.
func TestAddKernelAllocsOnceSized(t *testing.T) {
	const runs = 100
	s := NewSim(ClusterConfig{NumGPUs: 2})
	st := s.NewStream()
	s.Grow(runs+2, 2*(runs+2), 2*(runs+2))
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
	s.Grow(-1, -1, -1)
	s.Grow(0, 0, 0)
	if cap(s.ops) != 0 || cap(s.names) != 0 || cap(s.tags) != 0 || cap(s.depEnd) != 0 || cap(s.dems) != 0 || cap(s.deps) != 0 {
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
// without EndTimesOnly. The end-times-only run stores no names or tags
// and returns no op results, but the same makespan, event count and
// timelines; every op's end read through OpEnd, in either mode, is the
// full run's Result.Ops[i].End.
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
		if lean.Ops != nil || len(leanSim.names) != 0 || len(leanSim.tags) != 0 {
			t.Fatalf("seed %d: end-times-only run kept %d op results, %d names, %d tags",
				seed, len(lean.Ops), len(leanSim.names), len(leanSim.tags))
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

// TestEndTimesOnlyErrorsNameOpIndex: a Sim that keeps no names still
// identifies the offending op, by index, in deferred add errors and in
// Run's dependency errors; a full Sim names it.
func TestEndTimesOnlyErrorsNameOpIndex(t *testing.T) {
	for _, c := range []struct {
		name       string
		add        func(s *Sim)
		full, lean string
	}{
		{"work", func(s *Sim) { s.AddKernel(0, Kernel{Name: "k", Work: math.NaN()}) },
			`op "k": work NaN is not finite`, "op #1: work NaN is not finite"},
		{"demand", func(s *Sim) { s.AddKernel(0, Kernel{Name: "k", Demand: Demand{MemBW: math.NaN()}}) },
			`op "k": MemBW demand is NaN`, "op #1: MemBW demand is NaN"},
		{"bytes", func(s *Sim) { s.AddHostCopy("h", 0, math.Inf(1)) },
			`op "h": bytes +Inf is not finite`, "op #1: bytes +Inf is not finite"},
		{"stream", func(s *Sim) { s.AddBarrier("b", WithStream(Stream(5))) },
			`op "b": unknown stream 5`, "op #1: unknown stream 5"},
		{"priority", func(s *Sim) { s.AddKernel(0, Kernel{Name: "k"}, WithPriority(1<<40)) },
			`op "k": priority 1099511627776 out of range`, "op #1: priority 1099511627776 out of range"},
		{"dep_range", func(s *Sim) { s.AddBarrier("b", WithDeps(OpID(1<<40))) },
			`op "b" depends on unknown op 1099511627776`, "op #1 depends on unknown op 1099511627776"},
		{"dep_unknown", func(s *Sim) { s.AddBarrier("b", WithDeps(7)) },
			`op "b" depends on unknown op 7`, "op #1 depends on unknown op 7"},
		{"dep_self", func(s *Sim) { s.AddBarrier("b", WithDeps(1)) },
			`op "b" depends on itself`, "op #1 depends on itself"},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, lean := range []bool{false, true} {
				s := NewSim(ClusterConfig{NumGPUs: 1, EndTimesOnly: lean})
				s.AddBarrier("first")
				c.add(s)
				want := c.full
				if lean {
					want = c.lean
				}
				if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("EndTimesOnly=%v: Run error = %v, want %q", lean, err, want)
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
func periodicDAG(s *Sim, streams []Stream, i int, prev OpID) OpID {
	g := s.Config().NumGPUs
	var ends []OpID
	for gpu := 0; gpu < g; gpu++ {
		var deps []OpID
		if i > 0 {
			deps = append(deps, prev)
		}
		k := s.AddKernel(gpu, Kernel{Work: 10 + float64(3*gpu), Demand: Demand{SM: 0.4 + 0.1*float64(gpu), MemBW: 0.6}},
			WithStream(streams[gpu]), WithDeps(deps...), WithPriority(gpu%2))
		c := s.AddLinkBusy("", gpu, 2e6, WithDeps(k))
		ends = append(ends, s.AddComm("", gpu, (gpu+1)%g, 1e6, WithDeps(c)))
	}
	ends = append(ends, s.AddCPU("", 7, 4, WithStream(streams[g])))
	return s.AddBarrier("", WithDeps(ends...))
}

// TestStampMatchesBuilt: on a 2-node topology, stamping iterations 2–7
// of periodicDAG stores the ops, demands and dependencies building them
// stores, reuses the sources' demand spans, advances the stream tails,
// and runs to the same op ends, makespan, events and timelines.
func TestStampMatchesBuilt(t *testing.T) {
	const gpus, iters = 4, 8
	newSim := func() (*Sim, []Stream) {
		s := NewSim(ClusterConfig{NumGPUs: gpus, EndTimesOnly: true, Timelines: true})
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
	if ResultDigest(got) != ResultDigest(want) || got.Events != want.Events {
		t.Fatalf("stamped run digest %s, %d events; built %s, %d events", ResultDigest(got)[:12], got.Events, ResultDigest(want)[:12], want.Events)
	}
	for i := range built.ops {
		if b, s := built.OpEnd(OpID(i)), stamped.OpEnd(OpID(i)); math.Float64bits(b) != math.Float64bits(s) {
			t.Fatalf("op %d ends at %v stamped, %v built", i, s, b)
		}
	}
}

// TestStampRejected: Stamp on a Sim that keeps names, or of a span
// outside the store, returns InvalidOp, leaves the store as it was and
// records an error Run reports.
func TestStampRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		lean bool
		n    int
		want string
	}{
		{"named", false, 1, "Stamp on a Sim that keeps op names"},
		{"zero", true, 0, "Stamp of 0 ops from a store of 2"},
		{"negative", true, -1, "Stamp of -1 ops from a store of 2"},
		{"past_store", true, 3, "Stamp of 3 ops from a store of 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSim(ClusterConfig{NumGPUs: 1, EndTimesOnly: c.lean})
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
	empty := NewSim(ClusterConfig{NumGPUs: 1, EndTimesOnly: true})
	if id := empty.Stamp(1); id != InvalidOp {
		t.Fatalf("Stamp on an empty store = %d, want InvalidOp", id)
	}
	if _, err := empty.Run(); err == nil || !strings.Contains(err.Error(), "Stamp of 1 ops from a store of 0") {
		t.Fatalf("Run error = %v", err)
	}
}
