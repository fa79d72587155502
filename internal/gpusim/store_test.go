package gpusim

import (
	"reflect"
	"strings"
	"testing"
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
