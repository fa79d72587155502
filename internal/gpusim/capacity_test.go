package gpusim

import (
	"fmt"
	"math"
	"testing"
)

// soloKernel adds a zero-overhead kernel with the given demand.
func soloKernel(s *Sim, name string, work float64, d Demand) OpID {
	return s.AddKernel(0, Kernel{Name: name, Work: work, LaunchOverhead: -1, Demand: d})
}

func TestThrottleWindowSlowsKernel(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	id := soloKernel(s, "k", 100, Demand{SM: 1})
	if err := s.AddCapacityWindow(ResSM, 0, 0, 1e6, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Demand 1.0 against capacity 0.5: the fair-share law gives speed
	// (0.5/1.0)^φ for the whole run.
	want := 100 / math.Pow(0.5, ContentionExponent)
	almost(t, res.OpByID(id).Latency(), want, 1e-6, "throttled kernel")
}

func TestThrottleWindowBoundary(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	id := soloKernel(s, "k", 100, Demand{SM: 1})
	if err := s.AddCapacityWindow(ResSM, 0, 0, 50, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Throttled until t=50 (speed 0.5^φ), then full speed: the window
	// boundary must split the integration exactly at t=50.
	slow := math.Pow(0.5, ContentionExponent)
	want := 50 + (100 - 50*slow)
	almost(t, res.OpByID(id).Latency(), want, 1e-6, "kernel spanning window boundary")
}

func TestDeferredWindowUnaffectedBefore(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	id := soloKernel(s, "k", 100, Demand{SM: 1})
	if err := s.AddCapacityWindow(ResSM, 0, 200, 300, 0.25); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(id).Latency(), 100, 1e-9, "kernel finishing before the window")
}

func TestOverlappingWindowsMultiply(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	id := soloKernel(s, "k", 100, Demand{SM: 1})
	if err := s.AddCapacityWindow(ResSM, 0, 0, 1e6, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCapacityWindow(ResSM, 0, 0, 1e6, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 100 / math.Pow(0.4, ContentionExponent)
	almost(t, res.OpByID(id).Latency(), want, 1e-6, "multiplied overlapping windows")
}

func TestLinkWindowSlowsComm(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2, LinkGBs: 100})
	id := s.AddComm("xfer", 0, 1, 1e6) // 10 µs solo
	if err := s.AddCapacityWindow(ResLinkOut, 0, 0, 1e6, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 10 / math.Pow(0.5, ContentionExponent)
	almost(t, res.OpByID(id).Latency(), want, 1e-6, "comm over degraded link")
}

func TestHostStallWindowSlowsCPU(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, HostCores: 4})
	id := s.AddCPU("prep", 100, 4) // full pool
	if err := s.AddCapacityWindow(ResHostCPU, 0, 0, 1e6, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 100 / math.Pow(0.5, ContentionExponent)
	almost(t, res.OpByID(id).Latency(), want, 1e-6, "CPU op during host stall")
}

// TestScaleOneWindowBitIdentical pins the zero-perturbation guarantee:
// a window that scales capacity by 1.0 emits no step events and cannot
// move a single bit of the result.
func TestScaleOneWindowBitIdentical(t *testing.T) {
	build := func(withWindow bool) *Sim {
		s := buildGoldenDAG(7)
		if withWindow {
			if err := s.AddCapacityWindow(ResSM, 0, 10, 500, 1.0); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	plain, err := build(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := build(true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if digestResult(plain) != digestResult(windowed) {
		t.Fatal("scale-1.0 window changed the result bits")
	}
}

func TestCapacityWindowValidation(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2})
	cases := []struct {
		name string
		err  error
	}{
		{"bad class", s.AddCapacityWindow(ResourceClass(99), 0, 0, 10, 0.5)},
		{"gpu out of range", s.AddCapacityWindow(ResSM, 2, 0, 10, 0.5)},
		{"negative gpu", s.AddCapacityWindow(ResMemBW, -1, 0, 10, 0.5)},
		{"empty interval", s.AddCapacityWindow(ResSM, 0, 10, 10, 0.5)},
		{"inverted interval", s.AddCapacityWindow(ResSM, 0, 20, 10, 0.5)},
		{"scale above 1", s.AddCapacityWindow(ResSM, 0, 0, 10, 1.5)},
		{"scale NaN", s.AddCapacityWindow(ResSM, 0, 0, 10, math.NaN())},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := s.AddCapacityWindow(ResHostCPU, 99, 0, 10, 0.5); err != nil {
		t.Errorf("host window must ignore gpu index: %v", err)
	}
}

func TestInjectStragglersDeterministic(t *testing.T) {
	build := func() *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 2})
		for i := 0; i < 40; i++ {
			s.AddKernel(i%2, Kernel{Name: "k", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 0.4}})
		}
		s.AddBarrier("b") // non-kernels must not consume rng draws
		return s
	}
	run := func(seed int64) (int, string) {
		s := build()
		n, err := s.InjectStragglers(seed, 0.5, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return n, digestResult(res)
	}
	n1, d1 := run(42)
	n2, d2 := run(42)
	if n1 == 0 || n1 == 40 {
		t.Fatalf("degenerate straggler selection: %d of 40", n1)
	}
	if n1 != n2 || d1 != d2 {
		t.Fatalf("same seed diverged: %d/%d kernels, digests %s vs %s", n1, n2, d1[:12], d2[:12])
	}
	_, d3 := run(43)
	if d1 == d3 {
		t.Fatal("different seeds produced identical perturbations")
	}
}

func TestInjectStragglersValidation(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	soloKernel(s, "k", 10, Demand{SM: 0.5})
	if _, err := s.InjectStragglers(1, -0.1, 2); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := s.InjectStragglers(1, 0.5, 0); err == nil {
		t.Error("zero factor accepted")
	}
	// Fatal: an infinite factor that slipped through would make Run spin.
	if _, err := s.InjectStragglers(1, 1, math.Inf(1)); err == nil {
		t.Fatal("infinite factor accepted")
	}
	if n, err := s.InjectStragglers(1, 0, 2); err != nil || n != 0 {
		t.Errorf("prob 0: n=%d err=%v", n, err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InjectStragglers(1, 0.5, 2); err == nil {
		t.Error("injection after Run accepted")
	}
}

// TestPerturbedEquivalence replays perturbed versions of the golden
// DAGs through both engines: the fast engine's incremental capacity
// handling must stay bit-identical to the reference rebuild.
func TestPerturbedEquivalence(t *testing.T) {
	perturb := func(s *Sim, seed int64) {
		gpus := s.Config().NumGPUs
		windows := []struct {
			rc    ResourceClass
			gpu   int
			t0    float64
			t1    float64
			scale float64
		}{
			{ResSM, int(seed) % gpus, 20, 400, 0.5},
			{ResMemBW, int(seed) % gpus, 100, 300, 0.7},
			{ResLinkOut, (int(seed) + 1) % gpus, 0, 250, 0.4},
			{ResLinkIn, (int(seed) + 1) % gpus, 0, 250, 0.4},
			{ResCopyEngine, int(seed+2) % gpus, 50, 150, 0.6},
			{ResHostCPU, 0, 30, 500, 0.5},
		}
		for _, w := range windows {
			if err := s.AddCapacityWindow(w.rc, w.gpu, w.t0, w.t1, w.scale); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.InjectStragglers(seed, 0.3, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(0); seed < 16; seed++ {
		fast := buildGoldenDAG(seed)
		perturb(fast, seed)
		got, err := fast.Run()
		if err != nil {
			t.Fatalf("seed %d: optimized engine: %v", seed, err)
		}
		ref := buildGoldenDAG(seed)
		perturb(ref, seed)
		want, err := referenceRun(ref)
		if err != nil {
			t.Fatalf("seed %d: reference engine: %v", seed, err)
		}
		compareResults(t, int(seed), got, want)
	}
}

// TestCapacityWindowDegenerateInputs pins the documented semantics of
// the remaining degenerate-input classes: NaN endpoints and negative
// scales are rejected, a negative t0 clamps to 0, and a zero-length
// window stays rejected even with the clamp (t0 < 0, t1 == 0).
func TestCapacityWindowDegenerateInputs(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	rejected := []struct {
		name string
		err  error
	}{
		{"nan t0", s.AddCapacityWindow(ResSM, 0, math.NaN(), 10, 0.5)},
		{"nan t1", s.AddCapacityWindow(ResSM, 0, 0, math.NaN(), 0.5)},
		{"negative scale", s.AddCapacityWindow(ResSM, 0, 0, 10, -0.1)},
		{"clamped to empty", s.AddCapacityWindow(ResSM, 0, -5, 0, 0.5)},
	}
	for _, c := range rejected {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Negative t0 clamps: [-50, 50)@0.5 must behave exactly like
	// [0, 50)@0.5.
	run := func(t0 float64) float64 {
		s := NewSim(ClusterConfig{NumGPUs: 1})
		id := soloKernel(s, "k", 100, Demand{SM: 1})
		if err := s.AddCapacityWindow(ResSM, 0, t0, 50, 0.5); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.OpByID(id).Latency()
	}
	if a, b := run(-50), run(0); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("clamped window latency %v != explicit-zero window %v", a, b)
	}
}

// TestOverlappingWindowsMatchReference runs partially-overlapping
// windows (distinct boundary instants, multiplied interior) on a
// multi-GPU DAG with a cross-GPU transfer and a host-pool window: the
// overlap semantics must be field-exact against the preserved reference
// engine.
func TestOverlappingWindowsMatchReference(t *testing.T) {
	build := func() *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 4})
		for i := 0; i < 48; i++ {
			g := i % 4
			s.AddKernel(g, Kernel{
				Name:   fmt.Sprintf("k%d", i),
				Work:   20 + float64(i%7)*5,
				Demand: Demand{SM: 0.7, MemBW: 0.3},
			}, WithStream(fmt.Sprintf("g%d", g)))
		}
		s.AddComm("x", 0, 3, 2e6)
		for g := 0; g < 4; g++ {
			// Same resource, staggered overlap: [10,120)@0.8 x [60,200)@0.5.
			if err := s.AddCapacityWindow(ResSM, g, 10, 120, 0.8); err != nil {
				t.Fatal(err)
			}
			if err := s.AddCapacityWindow(ResSM, g, 60, 200, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddCapacityWindow(ResHostCPU, 0, 0, 100, 0.6); err != nil {
			t.Fatal(err)
		}
		return s
	}
	got, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(build())
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, 0, got, want)
}
