package gpusim

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.4f, want %.4f (tol %.4f)", msg, got, want, tol)
	}
}

func TestSoloKernelLatency(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	k := Kernel{Name: "k", Work: 100, Demand: Demand{SM: 0.5, MemBW: 0.3}}
	id := s.AddKernel(0, k)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(id).Latency(), 100+DefaultLaunchOverhead, 1e-6, "solo latency")
	almost(t, res.Makespan, k.SoloLatency(), 1e-6, "makespan")
}

func TestLaunchOverheadOverride(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	id := s.AddKernel(0, Kernel{Name: "k", Work: 10, LaunchOverhead: 2, Demand: Demand{SM: 0.1}})
	id2 := s.AddKernel(0, Kernel{Name: "z", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 0.1}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(id).Latency(), 12, 1e-6, "custom overhead")
	almost(t, res.OpByID(id2).Latency(), 10, 1e-6, "suppressed overhead")
}

func TestCoRunNoContention(t *testing.T) {
	// Total demand under capacity on both resources: no stretch.
	s := NewSim(ClusterConfig{NumGPUs: 1})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 100, Demand: Demand{SM: 0.6, MemBW: 0.2}})
	b := s.AddKernel(0, Kernel{Name: "b", Work: 100, Demand: Demand{SM: 0.3, MemBW: 0.5}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(a).Latency(), 105, 1e-6, "a unstretched")
	almost(t, res.OpByID(b).Latency(), 105, 1e-6, "b unstretched")
}

func TestCoRunFairShareContention(t *testing.T) {
	// Two kernels each demanding 0.8 SM: load 1.6, both slowed by the
	// superlinear factor (1/1.6)^φ.
	s := NewSim(ClusterConfig{NumGPUs: 1, Policy: FairShare})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 160, LaunchOverhead: -1, Demand: Demand{SM: 0.8}})
	b := s.AddKernel(0, Kernel{Name: "b", Work: 160, LaunchOverhead: -1, Demand: Demand{SM: 0.8}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 160 * math.Pow(1.6, ContentionExponent)
	almost(t, res.OpByID(a).Latency(), want, 1e-6, "a stretched")
	almost(t, res.OpByID(b).Latency(), want, 1e-6, "b stretched")
}

func TestCoRunAsymmetricRelease(t *testing.T) {
	// b is short; once it finishes, a speeds back up.
	s := NewSim(ClusterConfig{NumGPUs: 1, Policy: FairShare})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 100, LaunchOverhead: -1, Demand: Demand{SM: 1.0}})
	b := s.AddKernel(0, Kernel{Name: "b", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 1.0}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Both run at (1/2)^φ until b finishes; a then has 90 work left at
	// full speed.
	f := math.Pow(0.5, ContentionExponent)
	bEnd := 10 / f
	almost(t, res.OpByID(b).End, bEnd, 1e-6, "b end")
	almost(t, res.OpByID(a).End, bEnd+90, 1e-6, "a end")
}

func TestPrioritySpaceSharing(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, Policy: PrioritySpace})
	hi := s.AddKernel(0, Kernel{Name: "train", Work: 100, LaunchOverhead: -1, Demand: Demand{SM: 0.7}}, WithPriority(1))
	lo := s.AddKernel(0, Kernel{Name: "pre", Work: 60, LaunchOverhead: -1, Demand: Demand{SM: 0.6}}, WithPriority(0))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// High priority gets its full 0.7 and is unstretched.
	almost(t, res.OpByID(hi).Latency(), 100, 1e-6, "train unaffected")
	// Low priority sees the burst-inflated footprint of the training
	// kernel (0.7×PriorityBurstFactor ≥ 1): it crawls at the progress
	// floor until train finishes, then runs its ~60 work at full speed.
	got := res.OpByID(lo).End
	if got < 155 || got > 165 {
		t.Fatalf("preproc squeezed: end = %f, want ~160", got)
	}
}

func TestPrioritySpaceStarvationFloor(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, Policy: PrioritySpace})
	s.AddKernel(0, Kernel{Name: "train", Work: 50, LaunchOverhead: -1, Demand: Demand{SM: 1.0}}, WithPriority(1))
	lo := s.AddKernel(0, Kernel{Name: "pre", Work: 1, LaunchOverhead: -1, Demand: Demand{SM: 0.5}}, WithPriority(0))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Starved op still progresses at the floor speed and terminates.
	if res.OpByID(lo).End <= 0 || math.IsInf(res.OpByID(lo).End, 1) {
		t.Fatalf("starved op never finished: %+v", res.OpByID(lo))
	}
}

// newStreams returns n new streams of s.
func newStreams(s *Sim, n int) []Stream {
	out := make([]Stream, n)
	for i := range out {
		out[i] = s.NewStream()
	}
	return out
}

func TestStreamsSerialize(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	st := newStreams(s, 2)
	a := s.AddKernel(0, Kernel{Name: "a", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 0.1}}, WithStream(st[0]))
	b := s.AddKernel(0, Kernel{Name: "b", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 0.1}}, WithStream(st[0]))
	c := s.AddKernel(0, Kernel{Name: "c", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 0.1}}, WithStream(st[1]))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.OpByID(b).Start < res.OpByID(a).End-1e-9 {
		t.Fatalf("stream did not serialize: b.start=%f a.end=%f", res.OpByID(b).Start, res.OpByID(a).End)
	}
	almost(t, res.OpByID(c).Start, 0, 1e-9, "other stream starts immediately")
}

func TestExplicitDeps(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 30, LaunchOverhead: -1, Demand: Demand{SM: 0.2}})
	b := s.AddKernel(1, Kernel{Name: "b", Work: 5, LaunchOverhead: -1, Demand: Demand{SM: 0.2}}, WithDeps(a))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(b).Start, 30, 1e-6, "dep start")
	almost(t, res.Makespan, 35, 1e-6, "makespan")
}

func TestBarrierJoinsFanIn(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 0.2}})
	b := s.AddKernel(1, Kernel{Name: "b", Work: 25, LaunchOverhead: -1, Demand: Demand{SM: 0.2}})
	bar := s.AddBarrier("sync", WithDeps(a, b))
	c := s.AddKernel(0, Kernel{Name: "c", Work: 1, LaunchOverhead: -1, Demand: Demand{SM: 0.2}}, WithDeps(bar))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(c).Start, 25, 1e-6, "barrier waits for slowest")
}

func TestCommLatency(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2, LinkGBs: 100})
	// 1 MB over 100 GB/s = 1e6 / (100*1e3) µs = 10 µs.
	id := s.AddComm("xfer", 0, 1, 1e6)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(id).Latency(), 10, 1e-6, "comm latency")
}

func TestCommSameGPUChargesDRAM(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2, LinkGBs: 100, DramGBs: 1000})
	// 1 GB at 1000 GB/s = 1e9 / (1000*1e3) µs = 1000 µs: a local
	// transfer is a D2D copy through DRAM, not free.
	id := s.AddComm("local", 1, 1, 1e9)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(id).Latency(), 1000, 1e-6, "local copy at DRAM bandwidth")
}

func TestCommSameGPUFloorAndContention(t *testing.T) {
	// Tiny local transfers keep the 0.5 µs floor; large ones contend
	// with kernels for MemBW.
	s := NewSim(ClusterConfig{NumGPUs: 1, DramGBs: 1000})
	tiny := s.AddComm("tiny", 0, 0, 1)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(tiny).Latency(), 0.5, 1e-9, "local copy latency floor")

	s2 := NewSim(ClusterConfig{NumGPUs: 1, DramGBs: 1000})
	c := s2.AddComm("big", 0, 0, 1e9) // 1000 µs solo
	k := s2.AddKernel(0, Kernel{Name: "k", Work: 1000, LaunchOverhead: -1, Demand: Demand{MemBW: 1}})
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Copy (BW demand 1) + kernel (BW demand 1): both stretched by the
	// fair-share oversubscription factor 2^φ.
	want := 1000 * math.Pow(2, ContentionExponent)
	almost(t, res2.OpByID(c).Latency(), want, 1e-6, "local copy under BW contention")
	almost(t, res2.OpByID(k).Latency(), want, 1e-6, "kernel stretched by local copy")
}

func TestResultRangeGuards(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2, Timelines: true})
	s.AddKernel(0, Kernel{Name: "k", Work: 10, Demand: Demand{SM: 0.5}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{-1, 2, 100} {
		if sm, bw := res.AvgUtil(g, 0); sm != 0 || bw != 0 {
			t.Fatalf("AvgUtil(%d) = %v,%v; want zeros", g, sm, bw)
		}
		if got := res.UtilSeries(g, 1); got != nil {
			t.Fatalf("UtilSeries(%d) = %v; want nil", g, got)
		}
		if got := res.BusyFraction(g, 0); got != 0 {
			t.Fatalf("BusyFraction(%d) = %v; want 0", g, got)
		}
	}
}

func TestCommLinkContention(t *testing.T) {
	// Two transfers out of GPU 0 share its egress link.
	s := NewSim(ClusterConfig{NumGPUs: 3, LinkGBs: 100})
	a := s.AddComm("a", 0, 1, 1e6)
	b := s.AddComm("b", 0, 2, 1e6)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Pow(2, ContentionExponent)
	almost(t, res.OpByID(a).Latency(), want, 1e-6, "shared egress a")
	almost(t, res.OpByID(b).Latency(), want, 1e-6, "shared egress b")
}

func TestHostCopyAndCPU(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, CopyGBs: 10, HostCores: 4})
	h := s.AddHostCopy("h2d", 0, 1e5) // 1e5 / (10*1e3) = 10 µs
	c := s.AddCPU("prep", 40, 2)      // 2 of 4 cores
	c2 := s.AddCPU("prep2", 40, 2)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(h).Latency(), 10, 1e-6, "host copy")
	// The two CPU ops together demand the whole pool: no stretch.
	almost(t, res.OpByID(c).Latency(), 40, 1e-6, "cpu op")
	almost(t, res.OpByID(c2).Latency(), 40, 1e-6, "cpu op 2")
}

func TestCPUPoolContention(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, HostCores: 4})
	a := s.AddCPU("a", 40, 4)
	b := s.AddCPU("b", 40, 4)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 40 * math.Pow(2, ContentionExponent)
	almost(t, res.OpByID(a).Latency(), want, 1e-6, "cpu contention")
	almost(t, res.OpByID(b).Latency(), want, 1e-6, "cpu contention")
}

// TestDeadlockDetected: a dependency cycle behind runnable work must
// surface as the deadlock error once that work drains, with the same
// message (pending-op count included) as the reference engine.
func TestDeadlockDetected(t *testing.T) {
	build := func() *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 2})
		for i := 0; i < 8; i++ {
			s.AddKernel(i%2, Kernel{Name: "k", Work: 5, Demand: Demand{SM: 0.4}})
		}
		// A cycle a -> b -> a: a names b's id, 9, before b is added.
		a := s.AddKernel(0, Kernel{Name: "a", Work: 1, Demand: Demand{SM: 0.1}}, WithDeps(9))
		s.AddKernel(1, Kernel{Name: "b", Work: 1, Demand: Demand{SM: 0.1}}, WithDeps(a))
		return s
	}
	_, err := build().Run()
	if err == nil || !strings.Contains(err.Error(), "2 ops pending") || !strings.Contains(err.Error(), "dependency cycle") {
		t.Fatalf("cycle: err = %v, want the 2-pending-op deadlock error", err)
	}
	if _, refErr := referenceRun(build()); refErr == nil || refErr.Error() != err.Error() {
		t.Errorf("deadlock error %q != reference %q", err, refErr)
	}
}

// TestWithDepsCopiesCallerSlice: WithDeps copies its ids when the op is
// added, so a caller may reuse the slice for the next op (the pipeline
// builder does). Overwriting it after AddKernel must not rewire the DAG.
func TestWithDepsCopiesCallerSlice(t *testing.T) {
	build := func(mutate bool) *Sim {
		s := NewSim(ClusterConfig{NumGPUs: 2})
		a := s.AddKernel(0, Kernel{Name: "a", Work: 30, Demand: Demand{SM: 0.5}})
		b := s.AddKernel(1, Kernel{Name: "b", Work: 5, Demand: Demand{SM: 0.5}})
		deps := []OpID{a}
		s.AddKernel(1, Kernel{Name: "c", Work: 10, Demand: Demand{SM: 0.6}}, WithDeps(deps...))
		if mutate {
			deps[0] = b // c must still wait for a, not b
		}
		s.AddKernel(0, Kernel{Name: "d", Work: 10, Demand: Demand{SM: 0.6}}, WithDeps(b))
		return s
	}
	want, err := build(false).Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := build(true).Run()
	if err != nil {
		t.Fatal(err)
	}
	if d, wd := ResultDigest(got), ResultDigest(want); d != wd {
		t.Fatalf("mutating the WithDeps slice after AddKernel changed the result: %s != %s", d[:12], wd[:12])
	}
}

func TestRunTwiceRejected(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	s.AddKernel(0, Kernel{Name: "a", Work: 1, Demand: Demand{SM: 0.1}})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestBadDepRejected(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	s.AddKernel(0, Kernel{Name: "a", Work: 1, Demand: Demand{SM: 0.1}}, WithDeps(OpID(99)))
	if _, err := s.Run(); err == nil {
		t.Fatal("unknown dep accepted")
	}
}

func TestSelfDepRejected(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1})
	s.AddKernel(0, Kernel{Name: "a", Work: 1, Demand: Demand{SM: 0.1}}, WithDeps(0)) // op 0 itself
	if _, err := s.Run(); err == nil {
		t.Fatal("self dep accepted")
	}
}

func TestGPUOutOfRangeRejected(t *testing.T) {
	cases := []struct {
		name string
		add  func(s *Sim) OpID
	}{
		{"kernel", func(s *Sim) OpID { return s.AddKernel(3, Kernel{Name: "a", Work: 1}) }},
		{"kernel_negative", func(s *Sim) OpID { return s.AddKernel(-1, Kernel{Name: "a", Work: 1}) }},
		{"comm_src", func(s *Sim) OpID { return s.AddComm("c", 3, 0, 1e6) }},
		{"comm_dst", func(s *Sim) OpID { return s.AddComm("c", 0, -2, 1e6) }},
		{"linkbusy", func(s *Sim) OpID { return s.AddLinkBusy("l", 5, 1e6) }},
		{"hostcopy", func(s *Sim) OpID { return s.AddHostCopy("h", -1, 1e6) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSim(ClusterConfig{NumGPUs: 1})
			if id := tc.add(s); id != InvalidOp {
				t.Fatalf("out-of-range gpu accepted: op %d", id)
			}
			// A valid op added afterwards does not clear the recorded error.
			s.AddKernel(0, Kernel{Name: "ok", Work: 1, Demand: Demand{SM: 0.1}})
			if _, err := s.Run(); err == nil {
				t.Fatal("Run succeeded despite invalid add")
			} else if !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestNonFiniteCostRejected covers every entry point that takes an op
// cost. A NaN or infinite cost never drains, so Run used to spin
// forever on it; now the add returns InvalidOp and Run reports why. A
// NaN kernel demand is rejected the same way: it used to fail every
// "> 0" test and let the kernel run uncontended.
func TestNonFiniteCostRejected(t *testing.T) {
	nonFinite := []float64{math.NaN(), math.Inf(1)}
	cases := []struct {
		name string
		add  func(s *Sim, v float64) OpID
		vals []float64 // nil: nonFinite
		want string
	}{
		{"kernel_work", func(s *Sim, v float64) OpID {
			return s.AddKernel(0, Kernel{Name: "k", Work: v, Demand: Demand{SM: 0.5}})
		}, nil, "not finite"},
		{"kernel_overhead", func(s *Sim, v float64) OpID {
			return s.AddKernel(0, Kernel{Name: "k", Work: 1, LaunchOverhead: v})
		}, nil, "not finite"},
		{"kernel_sm", func(s *Sim, v float64) OpID {
			return s.AddKernel(0, Kernel{Name: "k", Work: 1, Demand: Demand{SM: v, MemBW: 0.5}})
		}, []float64{math.NaN()}, "SM demand is NaN"},
		{"kernel_membw", func(s *Sim, v float64) OpID {
			return s.AddKernel(0, Kernel{Name: "k", Work: 1, Demand: Demand{SM: 0.5, MemBW: v}})
		}, []float64{math.NaN()}, "MemBW demand is NaN"},
		{"cpu", func(s *Sim, v float64) OpID { return s.AddCPU("p", v, 1) }, nil, "not finite"},
		{"comm", func(s *Sim, v float64) OpID { return s.AddComm("c", 0, 1, v) }, nil, "not finite"},
		{"comm_local", func(s *Sim, v float64) OpID { return s.AddComm("c", 0, 0, v) }, nil, "not finite"},
		{"linkbusy", func(s *Sim, v float64) OpID { return s.AddLinkBusy("l", 0, v) }, nil, "not finite"},
		{"hostcopy", func(s *Sim, v float64) OpID { return s.AddHostCopy("h", 0, v) }, nil, "not finite"},
	}
	for _, tc := range cases {
		vals := tc.vals
		if vals == nil {
			vals = nonFinite
		}
		for _, v := range vals {
			t.Run(tc.name+"/"+strconv.FormatFloat(v, 'g', -1, 64), func(t *testing.T) {
				s := NewSim(ClusterConfig{NumGPUs: 2})
				// Fatal before Run: an accepted cost would make it spin.
				if id := tc.add(s, v); id != InvalidOp {
					t.Fatalf("cost %v accepted as op %d", v, id)
				}
				if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Run error = %v, want a %q error", err, tc.want)
				}
			})
		}
	}
}

// TestInfiniteDemandClamps: unlike NaN, an infinite demand is accepted
// and clamped to [0,1] — +Inf runs as a full demand, −Inf as none.
func TestInfiniteDemandClamps(t *testing.T) {
	run := func(d Demand) *Result {
		t.Helper()
		s := NewSim(ClusterConfig{NumGPUs: 1})
		s.AddKernel(0, Kernel{Name: "a", Work: 10, LaunchOverhead: -1, Demand: d})
		s.AddKernel(0, Kernel{Name: "b", Work: 10, LaunchOverhead: -1, Demand: Demand{SM: 1, MemBW: 1}})
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, c := range []struct{ inf, clamped Demand }{
		{Demand{SM: math.Inf(1), MemBW: math.Inf(-1)}, Demand{SM: 1}},
		{Demand{SM: math.Inf(-1), MemBW: math.Inf(1)}, Demand{MemBW: 1}},
	} {
		if got, want := ResultDigest(run(c.inf)), ResultDigest(run(c.clamped)); got != want {
			t.Errorf("demand %+v does not run as %+v", c.inf, c.clamped)
		}
	}
}

// TestNonFiniteBandwidthRejected: a NaN bandwidth passes WithDefaults'
// "<= 0" test and makes transfer work that never drains, so Run used to
// spin forever on a DAG of a kernel, an NVLink transfer, a device-local
// copy and a host copy. Every non-finite bandwidth is now an error from
// Run.
func TestNonFiniteBandwidthRejected(t *testing.T) {
	for _, field := range []string{"LinkGBs", "CopyGBs", "DramGBs"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(field+"/"+strconv.FormatFloat(v, 'g', -1, 64), func(t *testing.T) {
				cfg := ClusterConfig{NumGPUs: 2}
				switch field {
				case "LinkGBs":
					cfg.LinkGBs = v
				case "CopyGBs":
					cfg.CopyGBs = v
				case "DramGBs":
					cfg.DramGBs = v
				}
				s := NewSim(cfg)
				k := s.AddKernel(0, Kernel{Name: "k", Work: 10, Demand: Demand{SM: 0.5}})
				s.AddComm("link", 0, 1, 1e6, WithDeps(k))
				s.AddComm("local", 0, 0, 1e6, WithDeps(k))
				s.AddHostCopy("h2d", 1, 1e6)
				if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), field) {
					t.Fatalf("Run error = %v, want one naming %s", err, field)
				}
			})
		}
	}
}

// TestTooManyGPUsRejected: an op record holds its GPU as an int16, so
// a cluster of more GPUs is an error from Run, and the largest one it
// holds runs.
func TestTooManyGPUsRejected(t *testing.T) {
	for _, c := range []struct {
		gpus int
		ok   bool
	}{{math.MaxInt16, true}, {math.MaxInt16 + 1, false}} {
		s := NewSim(ClusterConfig{NumGPUs: c.gpus})
		s.AddKernel(c.gpus-1, Kernel{Name: "k", Work: 1})
		_, err := s.Run()
		if c.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), "exceeds the 32767")) {
			t.Fatalf("%d GPUs: Run error = %v", c.gpus, err)
		}
	}
}

func TestUtilizationAccounting(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, Timelines: true})
	s.AddKernel(0, Kernel{Name: "a", Work: 100, LaunchOverhead: -1, Demand: Demand{SM: 0.6, MemBW: 0.4}, Tag: "train"})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sm, bw := res.AvgUtil(0, 0)
	almost(t, sm, 0.6, 1e-6, "avg sm")
	almost(t, bw, 0.4, 1e-6, "avg bw")
	almost(t, res.BusyFraction(0, 0), 1.0, 1e-6, "busy fraction")

	// Two dependent kernels with equal demands record one segment, even
	// when their tags differ.
	s = NewSim(ClusterConfig{NumGPUs: 1, Timelines: true})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 100, LaunchOverhead: -1, Demand: Demand{SM: 0.6, MemBW: 0.4}, Tag: "train"})
	s.AddKernel(0, Kernel{Name: "b", Work: 100, LaunchOverhead: -1, Demand: Demand{SM: 0.6, MemBW: 0.4}, Tag: "preproc"}, WithDeps(a))
	if res, err = s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []UtilSegment{{Start: 0, End: 200, SM: 0.6, MemBW: 0.4}}; !reflect.DeepEqual(res.Util[0], want) {
		t.Fatalf("segments %+v, want %+v", res.Util[0], want)
	}
}

func TestUtilSeriesSampling(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, Timelines: true})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 50, LaunchOverhead: -1, Demand: Demand{SM: 0.9}})
	s.AddKernel(0, Kernel{Name: "b", Work: 50, LaunchOverhead: -1, Demand: Demand{SM: 0.1}}, WithDeps(a))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	series := res.UtilSeries(0, 10)
	if len(series) < 10 {
		t.Fatalf("series too short: %d", len(series))
	}
	almost(t, series[2].SM, 0.9, 1e-6, "early sample")
	almost(t, series[7].SM, 0.1, 1e-6, "late sample")
	for _, dt := range []float64{0, -1, math.NaN(), 1e-300, 5e-324} {
		if got := res.UtilSeries(0, dt); got != nil {
			t.Fatalf("dt=%v should return nil", dt)
		}
	}
}

func TestAvgUtilPrefixWindow(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, Timelines: true})
	a := s.AddKernel(0, Kernel{Name: "a", Work: 50, LaunchOverhead: -1, Demand: Demand{SM: 1.0}})
	s.AddKernel(0, Kernel{Name: "idlegap", Work: 50, LaunchOverhead: -1, Demand: Demand{}}, WithDeps(a))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sm, _ := res.AvgUtil(0, 50)
	almost(t, sm, 1.0, 1e-6, "prefix window util")
	sm, _ = res.AvgUtil(0, 100)
	almost(t, sm, 0.5, 1e-6, "full window util")
}

func TestDemandClamp(t *testing.T) {
	d := Demand{SM: 1.7, MemBW: -0.4}.Clamp()
	if d.SM != 1 || d.MemBW != 0 {
		t.Fatalf("Clamp = %+v", d)
	}
}

func TestPolicyString(t *testing.T) {
	if FairShare.String() != "fair-share" || PrioritySpace.String() != "priority-space" {
		t.Fatal("policy names wrong")
	}
	if SharePolicy(9).String() == "" {
		t.Fatal("unknown policy empty name")
	}
}

func TestLinkBusy(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 2, LinkGBs: 100})
	id := s.AddLinkBusy("a2a", 0, 1e6)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.OpByID(id).Latency(), 10, 1e-6, "link busy latency")
}

// Property: the makespan is at least the longest dependency chain's solo
// latency, and contention can only increase op latency, never decrease it.
func TestContentionMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		mk := func() (*Sim, []OpID) {
			s := NewSim(ClusterConfig{NumGPUs: 1, Policy: FairShare})
			ids := make([]OpID, n)
			r2 := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				k := Kernel{
					Name:           "k",
					Work:           1 + 50*r2.Float64(),
					LaunchOverhead: -1,
					Demand:         Demand{SM: r2.Float64(), MemBW: r2.Float64()},
				}
				ids[i] = s.AddKernel(0, k)
			}
			return s, ids
		}
		s1, ids := mk()
		res1, err := s1.Run()
		if err != nil {
			return false
		}
		// Same kernels plus one extra contender.
		s2, ids2 := mk()
		s2.AddKernel(0, Kernel{Name: "extra", Work: 100, LaunchOverhead: -1, Demand: Demand{SM: 0.9, MemBW: 0.9}})
		res2, err := s2.Run()
		if err != nil {
			return false
		}
		for i := range ids {
			if res2.OpByID(ids2[i]).Latency() < res1.OpByID(ids[i]).Latency()-1e-6 {
				return false
			}
		}
		return res1.Makespan <= res2.Makespan+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: utilization never exceeds 1 and op latencies are never below
// solo latency.
func TestUtilBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(ClusterConfig{NumGPUs: 2, Policy: SharePolicy(rng.Intn(2)), Timelines: true})
		n := 2 + rng.Intn(8)
		type added struct {
			id   OpID
			solo float64
		}
		var ids []added
		for i := 0; i < n; i++ {
			k := Kernel{
				Name:   "k",
				Work:   rng.Float64() * 30,
				Demand: Demand{SM: rng.Float64(), MemBW: rng.Float64()},
			}
			ids = append(ids, added{s.AddKernel(rng.Intn(2), k), k.SoloLatency()})
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		for g := 0; g < 2; g++ {
			for _, seg := range res.Util[g] {
				if seg.SM > 1+1e-9 || seg.MemBW > 1+1e-9 || seg.End < seg.Start {
					return false
				}
			}
		}
		for _, a := range ids {
			if res.OpByID(a.id).Latency() < a.solo-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, HostCores: 10, Timelines: true})
	s.AddKernel(0, Kernel{Name: "k", Work: 1e6, LaunchOverhead: -1, Demand: Demand{SM: 0.5, MemBW: 0.5}})
	s.AddCPU("c", 1e6, 5)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	pm := PowerModel{GPUIdleW: 100, GPUSMW: 200, GPUMemW: 100, HostIdleW: 50, HostCoreW: 10}
	e := res.Energy(pm, 1, 10)
	// 1 second makespan: GPU = 100 idle + 200*0.5 + 100*0.5 = 250 J;
	// host = 50 idle + 10 W/core * 10 cores * 0.5 util = 100 J.
	almost(t, e.MakespanUs, 1e6, 1e-3, "makespan")
	almost(t, e.GPUJoules, 250, 0.5, "gpu joules")
	almost(t, e.HostJoules, 100, 0.5, "host joules")
	almost(t, e.Total(), 350, 1, "total")
	almost(t, e.AvgGPUWatts(), 250, 0.5, "gpu watts")
	almost(t, e.AvgHostWatts(), 100, 0.5, "host watts")
	if len(res.HostUtil) == 0 {
		t.Fatal("no host utilization recorded")
	}
}

func TestEnergyEmptyResult(t *testing.T) {
	var e EnergyReport
	if e.AvgGPUWatts() != 0 || e.AvgHostWatts() != 0 {
		t.Fatal("zero-makespan watts should be 0")
	}
}

// TestQuerySurfaceOutOfRange pins the defined-zero behavior of the
// Result query surface: out-of-range lookups return zero values, never
// panic (the same convention AvgUtil/UtilSeries/BusyFraction follow).
func TestQuerySurfaceOutOfRange(t *testing.T) {
	s := NewSim(ClusterConfig{NumGPUs: 1, Timelines: true})
	id := s.AddKernel(0, Kernel{Name: "k", Work: 10, Demand: Demand{SM: 0.5}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OpByID(id); got.Name != "k" {
		t.Fatalf("in-range OpByID: %+v", got)
	}
	for _, bad := range []OpID{-1, OpID(len(res.Ops)), 99, InvalidOp} {
		if got := res.OpByID(bad); got != (OpResult{}) {
			t.Errorf("OpByID(%d) = %+v, want zero OpResult", bad, got)
		}
	}
	// Energy with an inflated GPU count clamps to the recorded
	// timelines instead of panicking, and matches the exact count.
	pm := DefaultPowerModel()
	want := res.Energy(pm, 1, 8)
	got := res.Energy(pm, 64, 8)
	if math.Float64bits(got.GPUJoules) != math.Float64bits(want.GPUJoules) ||
		math.Float64bits(got.HostJoules) != math.Float64bits(want.HostJoules) {
		t.Errorf("clamped Energy %+v != exact-count Energy %+v", got, want)
	}
}
