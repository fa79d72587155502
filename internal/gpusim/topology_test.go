package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rap/internal/topo"
)

// Behavioral tests for the hierarchical topology: fabric charging on
// cross-node transfers and collectives, oversubscription as a seeded
// capacity, fabric-scale validation, and the SetTopology life-cycle
// rules.

func mustRunMakespan(t *testing.T, s *Sim) float64 {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Makespan
}

// commMakespan runs a single point-to-point transfer on a 4-GPU cluster
// under the given topology (nil for none) and returns its makespan.
func commMakespan(t *testing.T, tp *topo.Topology, src, dst int) float64 {
	t.Helper()
	s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16, Policy: FairShare})
	if err := s.SetTopology(tp); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}
	s.AddComm("x", src, dst, 1e6)
	return mustRunMakespan(t, s)
}

func TestSetTopologyValidation(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16})
	if err := s.SetTopology(topo.Uniform(2, 3)); err == nil {
		t.Fatalf("GPU-count mismatch must fail")
	}
	bad := topo.Uniform(2, 2)
	bad.Oversub = 0.5
	if err := s.SetTopology(bad); err == nil {
		t.Fatalf("invalid topology must fail")
	}
	inf := topo.Uniform(2, 2)
	inf.Oversub = math.Inf(1)
	if err := s.SetTopology(inf); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("infinite oversubscription: error %v, want a non-finite rejection", err)
	}
	tp := topo.Uniform(2, 2)
	if err := s.SetTopology(tp); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}
	if s.topo != tp {
		t.Fatalf("SetTopology must install the topology")
	}

	// Multi-node installs are frozen once ops exist; flat and nil — both
	// provably inert — stay legal until Run.
	s = NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16})
	s.AddKernel(0, Kernel{Name: "k", Work: 10, Demand: Demand{SM: 1}})
	if err := s.SetTopology(topo.Uniform(2, 2)); err == nil {
		t.Fatalf("multi-node SetTopology after ops must fail")
	}
	if err := s.SetTopology(topo.Uniform(1, 4)); err != nil {
		t.Fatalf("flat SetTopology after ops: %v", err)
	}
	if err := s.SetTopology(nil); err != nil {
		t.Fatalf("nil SetTopology after ops: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetTopology(nil); err == nil {
		t.Fatalf("SetTopology after Run must fail")
	}

	// Once a multi-node topology is installed, replacing it after ops is
	// also frozen (the existing ops' fabric demands assume it).
	s = NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16})
	if err := s.SetTopology(topo.Uniform(2, 2)); err != nil {
		t.Fatal(err)
	}
	s.AddComm("c", 0, 2, 1e5)
	if err := s.SetTopology(nil); err == nil {
		t.Fatalf("clearing a multi-node topology after ops must fail")
	}
}

func TestFabricScaleValidation(t *testing.T) {
	flat := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16})
	err := flat.SetFabricScale([]float64{0.5})
	if err == nil || !strings.Contains(err.Error(), "no inter-node fabric") {
		t.Fatalf("fabric scale on a flat sim: got %v", err)
	}
	if err := flat.SetFabricScale([]float64{1}); err != nil {
		t.Fatalf("scale 1 on a flat sim is inert: %v", err)
	}

	s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16})
	if err := s.SetTopology(topo.Uniform(2, 2)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		scale []float64
		want  string
	}{
		{[]float64{0.5, 0.5, 0.5}, "3 fabric scales for 2 topology nodes"},
		{[]float64{1, 0}, "outside (0,1]"},
		{[]float64{-0.5}, "outside (0,1]"},
		{[]float64{1.5}, "outside (0,1]"},
		{[]float64{math.NaN()}, "outside (0,1]"},
	} {
		if err := s.SetFabricScale(c.scale); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("scale %v: error %v, want one containing %q", c.scale, err, c.want)
		}
	}
	if err := s.SetFabricScale([]float64{0.5, 0.25}); err != nil {
		t.Fatalf("fabric scale on both nodes: %v", err)
	}
	s.AddComm("c", 0, 2, 1e5)
	mustRunMakespan(t, s)
	if err := s.SetFabricScale(nil); err == nil {
		t.Fatalf("SetFabricScale after Run must fail")
	}
}

// TestCrossNodeCommSlowsOnConstrainedFabric: with FabricGBs below
// LinkGBs a single cross-node flow oversubscribes its fabric links and
// runs slower than the same transfer inside one node, which in turn is
// bit-identical to the transfer on an untopologized cluster.
func TestCrossNodeCommSlowsOnConstrainedFabric(t *testing.T) {
	tp := topo.Uniform(2, 2)
	tp.FabricGBs = 100 // LinkGBs is 200 → one flow demands 2× a fabric link

	cross := commMakespan(t, tp, 0, 2)
	sameNode := commMakespan(t, tp, 0, 1)
	flat := commMakespan(t, nil, 0, 1)
	if !(cross > sameNode) {
		t.Fatalf("cross-node %g must exceed same-node %g on a constrained fabric", cross, sameNode)
	}
	if math.Float64bits(sameNode) != math.Float64bits(flat) {
		t.Fatalf("same-node transfer %g must be bit-identical to flat %g", sameNode, flat)
	}
}

// TestEqualRateFabricInvisible: a fabric matching NVLink rate with no
// oversubscription never saturates under a single flow, so the whole
// result digest matches the untopologized run bit-for-bit.
func TestEqualRateFabricInvisible(t *testing.T) {
	build := func(tp *topo.Topology) *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16, Policy: FairShare, Timelines: true})
		if err := s.SetTopology(tp); err != nil {
			t.Fatalf("SetTopology: %v", err)
		}
		c := s.AddComm("c", 0, 2, 1e6)
		s.AddKernel(1, Kernel{Name: "k", Work: 20, Demand: Demand{SM: 0.8, MemBW: 0.4}}, WithDeps(c))
		return s
	}
	tp := topo.Uniform(2, 2)
	tp.FabricGBs = 200
	tp.Oversub = 1
	withFabric, err := build(tp).Run()
	if err != nil {
		t.Fatal(err)
	}
	without, err := build(nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if digestResult(withFabric) != digestResult(without) {
		t.Fatalf("uncontended equal-rate fabric changed the digest")
	}
}

// TestOversubscriptionSlowsSingleFlow: oversubscription alone — equal
// per-flow rates, one flow — costs time, because it is seeded as the
// fabric link's base capacity 1/O.
func TestOversubscriptionSlowsSingleFlow(t *testing.T) {
	mk := func(oversub float64) float64 {
		tp := topo.Uniform(2, 2)
		tp.FabricGBs = 200
		tp.Oversub = oversub
		return commMakespan(t, tp, 0, 2)
	}
	t1, t4 := mk(1), mk(4)
	if !(t4 > t1) {
		t.Fatalf("oversub 4 makespan %g must exceed oversub 1 makespan %g", t4, t1)
	}
}

// TestFabricContention: two cross-node flows between disjoint GPU pairs
// never share an NVLink endpoint — on a flat cluster they run at full
// rate — but they do share the two fabric links, so the topologized run
// is strictly slower.
func TestFabricContention(t *testing.T) {
	build := func(tp *topo.Topology) *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16, Policy: FairShare})
		if err := s.SetTopology(tp); err != nil {
			t.Fatalf("SetTopology: %v", err)
		}
		s.AddComm("a", 0, 2, 1e6)
		s.AddComm("b", 1, 3, 1e6)
		return s
	}
	tp := topo.Uniform(2, 2)
	tp.FabricGBs = 200
	tp.Oversub = 1
	shared := mustRunMakespan(t, build(tp))
	flat := mustRunMakespan(t, build(nil))
	if !(shared > flat) {
		t.Fatalf("two flows through one fabric link (%g) must be slower than flat (%g)", shared, flat)
	}
}

// TestLinkBusyFabricShare: a collective participant's cross-node
// fraction — (N−k)/(N−1) of its traffic — transits its node's fabric
// link; with a constrained fabric that share saturates the link and the
// collective slows relative to flat.
func TestLinkBusyFabricShare(t *testing.T) {
	build := func(tp *topo.Topology) *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16, Policy: FairShare})
		if err := s.SetTopology(tp); err != nil {
			t.Fatalf("SetTopology: %v", err)
		}
		for g := 0; g < 4; g++ {
			s.AddLinkBusy(fmt.Sprintf("a2a%d", g), g, 1e6)
		}
		return s
	}
	tp := topo.Uniform(2, 2)
	tp.FabricGBs = 100 // share 2 × crossFrac 2/3 × 2 GPUs/node = 8/3 demand per link
	topod := mustRunMakespan(t, build(tp))
	flat := mustRunMakespan(t, build(nil))
	if !(topod > flat) {
		t.Fatalf("collective over constrained fabric (%g) must be slower than flat (%g)", topod, flat)
	}
}

// TestFabricScaleComposesWithOversub: a fabric scale multiplies onto
// the link's 1/Oversub base for the whole run. One flow whose fabric
// demand equals its NVLink demand is bound by the fabric alone, so
// halving the link's capacity stretches it by exactly 2^φ; a scale of 1
// leaves every bit of the result untouched.
func TestFabricScaleComposesWithOversub(t *testing.T) {
	run := func(scale []float64) *Result {
		s := NewSim(ClusterConfig{NumGPUs: 4, LinkGBs: 200, HostCores: 16, Policy: FairShare, Timelines: true})
		tp := topo.Uniform(2, 2)
		tp.FabricGBs = 200
		tp.Oversub = 2
		if err := s.SetTopology(tp); err != nil {
			t.Fatalf("SetTopology: %v", err)
		}
		if err := s.SetFabricScale(scale); err != nil {
			t.Fatalf("SetFabricScale: %v", err)
		}
		s.AddComm("c", 0, 2, 1e6)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, scaled := run(nil), run([]float64{0.5, 0.5})
	want := plain.Makespan * math.Pow(2, ContentionExponent)
	if math.Abs(scaled.Makespan-want) > 1e-9*want {
		t.Fatalf("fabric scale 0.5 on oversub 2: makespan %g, want %g", scaled.Makespan, want)
	}
	if digestResult(run([]float64{1, 1})) != digestResult(plain) {
		t.Fatalf("an all-ones fabric scale changed the digest")
	}
}

// buildFabricDAG constructs a seeded random multi-node DAG: 2 or 4
// NVSwitch nodes of 2 GPUs each behind a randomly constrained,
// oversubscribed fabric, exercising every op kind with plenty of
// cross-node traffic. The satellite cross-node equivalence matrix
// replays it through every engine.
func buildFabricDAG(seed int64) *Sim {
	rng := rand.New(rand.NewSource(seed ^ 0xfab))
	nodes := 2 + 2*rng.Intn(2)
	gpus := 2 * nodes
	cfg := ClusterConfig{
		NumGPUs:   gpus,
		LinkGBs:   100 + float64(rng.Intn(3))*100,
		CopyGBs:   10 + float64(rng.Intn(3))*10,
		HostCores: 8 + rng.Intn(3)*28,
		Timelines: true,
	}
	if seed%2 == 0 {
		cfg.Policy = FairShare
	} else {
		cfg.Policy = PrioritySpace
	}
	s := NewSim(cfg)
	tp := topo.Uniform(nodes, 2)
	tp.FabricGBs = 50 + float64(rng.Intn(3))*50
	tp.Oversub = float64(1 + rng.Intn(3))
	if err := s.SetTopology(tp); err != nil {
		panic(err)
	}

	n := 50 + rng.Intn(50)
	var ids []OpID
	streams := newStreams(s, 4)
	opts := func() []OpOption {
		var o []OpOption
		if rng.Intn(2) == 0 {
			o = append(o, WithStream(streams[rng.Intn(4)]))
		}
		if len(ids) > 0 && rng.Intn(3) == 0 {
			o = append(o, WithDeps(ids[rng.Intn(len(ids))]))
		}
		if rng.Intn(3) == 0 {
			o = append(o, WithPriority(rng.Intn(3)))
		}
		return o
	}
	for i := 0; i < n; i++ {
		var id OpID
		switch rng.Intn(10) {
		case 0, 1, 2: // kernels
			id = s.AddKernel(rng.Intn(gpus), Kernel{
				Name:   fmt.Sprintf("k%d", i),
				Work:   rng.Float64() * 60,
				Demand: Demand{SM: rng.Float64(), MemBW: rng.Float64()},
				Tag:    "train",
			}, opts()...)
		case 3, 4, 5: // comm, biased cross-node: endpoints on distinct nodes
			src := rng.Intn(gpus)
			dst := (src + 2 + rng.Intn(gpus-2)) % gpus
			id = s.AddComm(fmt.Sprintf("c%d", i), src, dst, rng.Float64()*2e6, opts()...)
		case 6, 7: // collectives: every shard of an all-to-all
			id = s.AddLinkBusy(fmt.Sprintf("l%d", i), rng.Intn(gpus), rng.Float64()*2e6, opts()...)
		case 8:
			id = s.AddHostCopy(fmt.Sprintf("h%d", i), rng.Intn(gpus), rng.Float64()*5e5, opts()...)
		default:
			if rng.Intn(2) == 0 {
				id = s.AddCPU(fmt.Sprintf("p%d", i), rng.Float64()*40, 1+rng.Intn(8), opts()...)
			} else {
				id = s.AddBarrier(fmt.Sprintf("b%d", i), opts()...)
			}
		}
		ids = append(ids, id)
	}
	return s
}

// TestEngineEquivalenceCrossNodeMatrix replays multi-node DAGs with
// fabric charging through the engine and the preserved reference
// implementation, once at full fabric capacity and once with a random
// static scale in (0,1] on every node. Every cell must be field-exact.
func TestEngineEquivalenceCrossNodeMatrix(t *testing.T) {
	for _, scaled := range []bool{false, true} {
		for seed := 0; seed < 8; seed++ {
			build := func() *Sim {
				s := buildFabricDAG(int64(seed))
				if scaled {
					rng := rand.New(rand.NewSource(int64(seed)))
					scale := make([]float64, s.topo.NumNodes())
					for n := range scale {
						scale[n] = 1 - rng.Float64()
					}
					if err := s.SetFabricScale(scale); err != nil {
						t.Fatalf("seed %d: fabric scale %v: %v", seed, scale, err)
					}
				}
				return s
			}
			got, err := build().Run()
			if err != nil {
				t.Fatalf("seed %d scaled=%v: engine: %v", seed, scaled, err)
			}
			want, err := referenceRun(build())
			if err != nil {
				t.Fatalf("seed %d scaled=%v: reference: %v", seed, scaled, err)
			}
			compareResults(t, seed, got, want)
		}
	}
}
