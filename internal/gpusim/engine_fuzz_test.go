package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rap/internal/topo"
)

// FuzzEngineMatchesReference replays random DAGs through the engine and
// the reference engine and requires bit-identical Results; a third run
// without timelines must match the engine's op times, Makespan and
// Events and record no timeline (see checkAgainstReference). The golden
// corpora stop at 4 GPUs; this target reaches 16 GPUs on up to 16 nodes,
// the sizes of fleet jobs. Tier-1 runs the seed corpus below; explore
// further with
//
//	go test -run '^$' -fuzz FuzzEngineMatchesReference -fuzztime 60s ./internal/gpusim
//
// The arguments map onto 1–16 GPUs, 1–GPUs nodes and a fabric mode
// (fabric%3, used only with more than one node): 0 leaves every fabric
// link at full capacity, 1 scales every node's link by a random
// fraction below 1, and 2 does the same but holds one node at exactly
// 1. In-range values map to themselves. tiny gives the DAG's
// zero-work kernels a work of timeEps/2 instead: started without launch
// overhead, they end after 0 < dt ≤ timeEps, an event that records no
// segment, so every GPU's next segment starts a new one even when its
// values equal the last one's.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, c := range []struct {
		seed                int64
		gpus, nodes, fabric uint8
		tiny                bool
	}{
		{0, 1, 1, 0, false},
		{1, 1, 1, 4, false},
		{2, 2, 1, 0, false},
		{3, 2, 2, 3, false},
		{4, 3, 1, 6, false},
		{5, 4, 2, 0, false},
		{6, 4, 4, 5, false},
		{7, 5, 2, 2, false},
		{8, 6, 3, 8, false},
		{9, 8, 1, 1, false},
		{10, 8, 2, 4, false},
		{11, 8, 8, 0, false},
		{12, 12, 3, 7, false},
		{13, 15, 4, 2, false},
		{14, 16, 1, 5, false},
		{15, 16, 2, 0, false},
		{16, 16, 2, 9, false},
		{17, 16, 16, 12, false},
		{24, 4, 2, 0, true},
		{18, 8, 2, 0, true},
		{22, 8, 2, 0, true},
		{20, 16, 2, 0, true},
	} {
		f.Add(c.seed, c.gpus, c.nodes, c.fabric, c.tiny)
	}
	f.Fuzz(func(t *testing.T, seed int64, gpus, nodes, fabric uint8, tiny bool) {
		g := 1 + int(gpus-1)%16
		d := fuzzDAG{seed: seed, gpus: g, nodes: 1 + int(nodes-1)%g, fabric: int(fabric) % 3, tiny: tiny}
		if checkAgainstReference(t, d) {
			t.Logf("seed %d: minSpeed clamping breaks the work bound", seed)
		}
	})
}

// TestEngineMatchesReferenceLarge replays DAGs of 3,000+ ops across 8
// and 16 GPUs and six streams through the engine and the reference
// engine. The golden and fuzz DAGs stay under 140 ops; these grow the
// flat op store through many reallocations.
func TestEngineMatchesReferenceLarge(t *testing.T) {
	for _, d := range []fuzzDAG{
		{seed: 101, gpus: 8, nodes: 1, ops: 3000},
		{seed: 102, gpus: 16, nodes: 2, fabric: 1, ops: 3500, tiny: true},
	} {
		if checkAgainstReference(t, d) {
			t.Logf("seed %d: minSpeed clamping breaks the work bound", d.seed)
		}
	}
}

// TestWorkBoundClampCases counts, over the FuzzEngineMatchesReference
// seed shapes at 60 seeds each, the DAGs whose makespan falls below a
// resource's total work over its capacity. Only minSpeed clamping can
// cause that (checkAgainstReference fails any other), and this test
// reports how often it does rather than hiding the cases.
func TestWorkBoundClampCases(t *testing.T) {
	broken, total := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		for _, d := range []fuzzDAG{
			{seed: seed, gpus: 1 + int(seed%8), nodes: 1},
			{seed: seed, gpus: 8, nodes: 2, fabric: int(seed % 3)},
		} {
			total++
			if checkAgainstReference(t, d) {
				broken++
			}
		}
	}
	t.Logf("minSpeed clamping breaks the work bound on %d of %d DAGs", broken, total)
}

// checkAgainstReference runs DAG d through the engine and the reference
// engine, both recording timelines, and requires bit-identical Results.
// It then runs d through the engine without timelines and requires the
// same op results, Makespan and Events, and nil timelines. Last, it
// checks the engine against properties no contention formula enters:
// two bounds (see checkSoloBounds), the exact longest path of a copy of
// d whose demands never oversubscribe a resource (see
// checkUncontended), and the work bound (see checkWorkBound), which
// minSpeed clamping may break: it reports whether it did.
func checkAgainstReference(t *testing.T, d fuzzDAG) (clampBroken bool) {
	t.Helper()
	got, err := buildFuzzDAG(t, d, true).Run()
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	checkSoloBounds(t, buildFuzzDAG(t, d, false), got)
	checkUncontended(t, d)
	want, clamps, err := referenceRunClamps(buildFuzzDAG(t, d, true))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	compareResults(t, int(d.seed), got, want)
	if d, wd := ResultDigest(got), ResultDigest(want); d != wd {
		t.Fatalf("digest %s != reference %s", d[:12], wd[:12])
	}

	plain, err := buildFuzzDAG(t, d, false).Run()
	if err != nil {
		t.Fatalf("engine without timelines: %v", err)
	}
	if plain.Util != nil || plain.HostUtil != nil {
		t.Fatalf("run without timelines recorded %d GPU and %d host timelines", len(plain.Util), len(plain.HostUtil))
	}
	if plain.Events != got.Events {
		t.Fatalf("%d events without timelines != %d with", plain.Events, got.Events)
	}
	// compareResults also walks the timelines: lend plain the recording
	// run's, so only op results and Makespan can differ.
	plain.Util, plain.HostUtil = got.Util, got.HostUtil
	compareResults(t, int(d.seed), plain, got)
	return checkWorkBound(t, buildFuzzDAG(t, d, false), got, clamps)
}

// checkUncontended scales the demands of DAG d so that no resource can
// be oversubscribed, whatever runs at once: on every resource, the sum
// of all its ops' demands, times PriorityBurstFactor (the most a
// priority level's SM share can count for the levels below it), is at
// most its capacity. Every op then runs at speed 1, so each op ends
// when its longest solo-latency path does, and the makespan equals the
// DAG's longest path, within soloTol per op of the DAG.
func checkUncontended(t *testing.T, d fuzzDAG) {
	t.Helper()
	s := buildFuzzDAG(t, d, false)
	caps := initialCaps(s)
	totals := make([]float64, len(caps))
	for _, dm := range s.dems {
		totals[dm.idx] += dm.dem
	}
	scale := 1.0
	for idx, total := range totals {
		if total > 0 {
			scale = min(scale, caps[idx]/(total*PriorityBurstFactor))
		}
	}
	for i := range s.dems {
		s.dems[i].dem *= scale
	}
	path := make([]float64, len(s.ops)) // longest solo-latency path ending at op i
	longest := 0.0
	for i := range s.ops {
		for _, dep := range s.depsOf(i) {
			path[i] = max(path[i], path[dep])
		}
		path[i] += s.ops[i].launchSpeedEnd + s.ops[i].workLeft
		longest = max(longest, path[i])
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("uncontended: %v", err)
	}
	tol := soloTol * float64(len(s.ops))
	for i, r := range res.Ops {
		if math.Abs(r.End-path[i]) > tol {
			t.Fatalf("uncontended op %s ends at %v, its longest solo path at %v", r.Name, r.End, path[i])
		}
	}
	if math.Abs(res.Makespan-longest) > tol {
		t.Fatalf("uncontended makespan %v, longest solo path %v", res.Makespan, longest)
	}
}

// checkWorkBound checks res, the run of a DAG built like unrun, against
// the work bound: an op of work w and demand d on a resource uses d·w
// of it over its run, and the resource serves at most its capacity at
// any time, so the makespan is at least each resource's total d·w over
// its capacity, less soloTol per op. The fair-share and priority
// formulas never grant more than the capacity; minSpeed, which raises
// a speed the formula set lower, can, so a run whose reference replay
// clamped (clamps > 0) may break the bound. checkWorkBound reports
// such a break, and fails on any other.
func checkWorkBound(t *testing.T, unrun *Sim, res *Result, clamps int) (clampBroken bool) {
	t.Helper()
	caps := initialCaps(unrun)
	work := make([]float64, len(caps))
	for i := range unrun.ops {
		o := &unrun.ops[i]
		for _, dm := range o.demandsIn(unrun.dems) {
			work[dm.idx] += dm.dem * o.workLeft
		}
	}
	tol := soloTol * float64(len(unrun.ops))
	for idx, w := range work {
		if bound := w / caps[idx]; res.Makespan < bound-tol {
			if clamps == 0 {
				t.Fatalf("makespan %v under resource %d's work bound %v, with no speed clamped", res.Makespan, idx, bound)
			}
			return true
		}
	}
	return false
}

// soloTol is how far an op may finish short of its solo latency: its
// overhead and its work phase each end once their remainder falls to
// timeEps, which skips up to 2·timeEps of solo time. Dividing by
// minSpeed leaves a thousandfold margin for the float drift of summing
// event steps into the clock, which stays far below it at these sizes.
const soloTol = 2 * timeEps / minSpeed //rap:unit us

// checkSoloBounds checks res, the run of a DAG built like unrun (which
// it reads solo latencies and dependencies from), against two bounds
// that hold whatever the contention model, since no op ever runs faster
// than speed 1: every op's End − Start is at least its solo latency
// (overhead plus work, as added), and every op ends no sooner than the
// longest solo-latency path of the DAG up to it, so the Makespan is at
// least the DAG's longest path. Each op on a path may fall short by
// soloTol.
func checkSoloBounds(t *testing.T, unrun *Sim, res *Result) {
	t.Helper()
	bound := make([]float64, len(unrun.ops)) // longest path ending at op i, less soloTol per op
	longest := 0.0
	for i := range unrun.ops {
		o, r := &unrun.ops[i], res.Ops[i]
		solo := o.launchSpeedEnd + o.workLeft
		if span := r.End - r.Start; span < solo-soloTol {
			t.Fatalf("op %s ran %v µs, under its solo latency %v", r.Name, span, solo)
		}
		for _, dep := range unrun.depsOf(i) {
			bound[i] = max(bound[i], bound[dep])
		}
		bound[i] += solo - soloTol
		if r.End < bound[i] {
			t.Fatalf("op %s ends at %v, before its longest solo path %v", r.Name, r.End, bound[i])
		}
		longest = max(longest, bound[i])
	}
	if res.Makespan < longest {
		t.Fatalf("makespan %v under the longest solo path %v", res.Makespan, longest)
	}
}

// fuzzDAG parameterizes buildFuzzDAG. ops 0 draws 40–139 ops.
type fuzzDAG struct {
	seed                     int64
	gpus, nodes, fabric, ops int
	tiny                     bool
}

// buildFuzzDAG builds a seeded random DAG on d.gpus GPUs grouped into
// d.nodes nodes (block assignment, so every node is non-empty) with the
// static fabric scales d.fabric selects (see FuzzEngineMatchesReference).
// It mixes every op kind, several kernel tags per GPU, zero-work (or,
// with d.tiny, timeEps/2-work) kernels, priorities, streams and
// duplicated dependencies. timelines sets the cluster's Timelines.
func buildFuzzDAG(t *testing.T, d fuzzDAG, timelines bool) *Sim {
	t.Helper()
	seed, gpus, nodes := d.seed, d.gpus, d.nodes
	rng := rand.New(rand.NewSource(seed))
	s := NewSim(ClusterConfig{
		NumGPUs:   gpus,
		LinkGBs:   100 + float64(rng.Intn(3))*100,
		CopyGBs:   10 + float64(rng.Intn(3))*10,
		HostCores: 8 + rng.Intn(3)*28,
		Policy:    SharePolicy(rng.Intn(2)),
		Timelines: timelines,
	})
	if nodes > 1 {
		nodeOf := make([]int, gpus)
		for g := range nodeOf {
			nodeOf[g] = g * nodes / gpus
		}
		tp, err := topo.FromNodeOf(nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		tp.FabricGBs = 50 + float64(rng.Intn(4))*50
		tp.Oversub = float64(1 + rng.Intn(3))
		if err := s.SetTopology(tp); err != nil {
			t.Fatal(err)
		}
	}

	tags := []string{"train", "preproc", "emb", ""}
	n := 40 + rng.Intn(100)
	if d.ops > 0 {
		n = d.ops
	}
	var ids []OpID
	streams := newStreams(s, 6)
	opts := func() []OpOption {
		var o []OpOption
		if rng.Intn(2) == 0 {
			o = append(o, WithStream(streams[rng.Intn(6)]))
		}
		if len(ids) > 0 && rng.Intn(3) == 0 {
			d := ids[rng.Intn(len(ids))]
			o = append(o, WithDeps(d, ids[rng.Intn(len(ids))], d))
		}
		if rng.Intn(3) == 0 {
			o = append(o, WithPriority(rng.Intn(3)))
		}
		return o
	}
	for i := 0; i < n; i++ {
		var id OpID
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			k := Kernel{
				Name:   fmt.Sprintf("k%d", i),
				Work:   rng.Float64() * 80,
				Demand: Demand{SM: rng.Float64(), MemBW: rng.Float64()},
				Tag:    tags[rng.Intn(len(tags))],
			}
			if rng.Intn(2) == 0 {
				k.LaunchOverhead = -1
			}
			if rng.Intn(5) == 0 {
				k.Work = 0
				if d.tiny {
					k.Work, k.LaunchOverhead = timeEps/2, -1
				}
			}
			id = s.AddKernel(rng.Intn(gpus), k, opts()...)
		case 5:
			id = s.AddComm(fmt.Sprintf("c%d", i), rng.Intn(gpus), rng.Intn(gpus), rng.Float64()*2e6, opts()...)
		case 6:
			id = s.AddLinkBusy(fmt.Sprintf("l%d", i), rng.Intn(gpus), rng.Float64()*2e6, opts()...)
		case 7:
			id = s.AddHostCopy(fmt.Sprintf("h%d", i), rng.Intn(gpus), rng.Float64()*5e5, opts()...)
		case 8:
			id = s.AddCPU(fmt.Sprintf("p%d", i), rng.Float64()*60, 1+rng.Intn(16), opts()...)
		default:
			id = s.AddBarrier(fmt.Sprintf("b%d", i), opts()...)
		}
		ids = append(ids, id)
	}

	if nodes > 1 && d.fabric > 0 {
		scale := make([]float64, nodes)
		for n := range scale {
			scale[n] = 0.05 + 0.9*rng.Float64()
		}
		if d.fabric == 2 {
			scale[rng.Intn(nodes)] = 1
		}
		if err := s.SetFabricScale(scale); err != nil {
			t.Fatal(err)
		}
	}
	return s
}
