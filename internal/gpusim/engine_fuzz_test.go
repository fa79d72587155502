package gpusim

import (
	"fmt"
	"math/rand"
	"testing"

	"rap/internal/topo"
)

// FuzzEngineMatchesReference replays random DAGs through the engine and
// the reference engine and requires bit-identical Results. The golden
// corpora stop at 4 GPUs; this target reaches 16 GPUs on up to 16 nodes,
// which is what exercises the per-GPU utilization dirty tracking at
// fleet job sizes. Tier-1 runs the seed corpus below; explore further
// with
//
//	go test -run '^$' -fuzz FuzzEngineMatchesReference -fuzztime 60s ./internal/gpusim
//
// The arguments map onto 1–16 GPUs, 1–GPUs nodes and 0–12 capacity
// windows; in-range values map to themselves.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, c := range []struct {
		seed                 int64
		gpus, nodes, windows uint8
	}{
		{0, 1, 1, 0},
		{1, 1, 1, 4},
		{2, 2, 1, 0},
		{3, 2, 2, 3},
		{4, 3, 1, 6},
		{5, 4, 2, 0},
		{6, 4, 4, 5},
		{7, 5, 2, 2},
		{8, 6, 3, 8},
		{9, 8, 1, 1},
		{10, 8, 2, 4},
		{11, 8, 8, 0},
		{12, 12, 3, 7},
		{13, 15, 4, 2},
		{14, 16, 1, 5},
		{15, 16, 2, 0},
		{16, 16, 2, 9},
		{17, 16, 16, 12},
	} {
		f.Add(c.seed, c.gpus, c.nodes, c.windows)
	}
	f.Fuzz(func(t *testing.T, seed int64, gpus, nodes, windows uint8) {
		g := 1 + int(gpus-1)%16
		n := 1 + int(nodes-1)%g
		w := int(windows) % 13
		got, err := buildFuzzDAG(t, seed, g, n, w).Run()
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		want, err := referenceRun(buildFuzzDAG(t, seed, g, n, w))
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		compareResults(t, int(seed), got, want)
		if d, wd := ResultDigest(got), ResultDigest(want); d != wd {
			t.Fatalf("digest %s != reference %s", d[:12], wd[:12])
		}
	})
}

// buildFuzzDAG builds a seeded random DAG on gpus GPUs grouped into
// nodes nodes (block assignment, so every node is non-empty) with the
// given number of capacity windows. It mixes every op kind, several
// kernel tags per GPU, zero-work kernels, priorities, streams,
// duplicated dependencies and, on some seeds, straggler inflation.
func buildFuzzDAG(t *testing.T, seed int64, gpus, nodes, windows int) *Sim {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSim(ClusterConfig{
		NumGPUs:   gpus,
		LinkGBs:   100 + float64(rng.Intn(3))*100,
		CopyGBs:   10 + float64(rng.Intn(3))*10,
		HostCores: 8 + rng.Intn(3)*28,
		Policy:    SharePolicy(rng.Intn(2)),
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
	var ids []OpID
	opts := func() []OpOption {
		var o []OpOption
		if rng.Intn(2) == 0 {
			o = append(o, WithStream(fmt.Sprintf("s%d", rng.Intn(6))))
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

	classes := int(ResHostCPU) + 1
	if nodes > 1 {
		classes = int(ResFabric) + 1
	}
	for i := 0; i < windows; i++ {
		rc := ResourceClass(rng.Intn(classes))
		idx := rng.Intn(gpus)
		if rc == ResFabric {
			idx = rng.Intn(nodes)
		}
		t0 := rng.Float64() * 300
		if err := s.AddCapacityWindow(rc, idx, t0, t0+1+rng.Float64()*300, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(2) == 0 {
		if _, err := s.InjectStragglers(seed, 0.3, 1.5+rng.Float64()*2); err != nil {
			t.Fatal(err)
		}
	}
	return s
}
