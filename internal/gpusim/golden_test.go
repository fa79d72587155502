package gpusim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenSeeds is the number of randomized DAGs the equivalence suite
// replays. The acceptance bar is ≥50; a few extra cost nothing.
const goldenSeeds = 64

// buildGoldenDAG constructs a seeded random op DAG exercising every op
// kind (kernels, point-to-point comm, collectives, host copies, CPU ops,
// barriers), both share policies, priorities, streams and explicit
// fan-in dependencies. It must stay byte-for-byte stable: the committed
// golden digests were produced from these exact DAGs.
func buildGoldenDAG(seed int64) *Sim { return goldenDAG(seed, false) }

// goldenDAG is buildGoldenDAG with the cluster config's EndTimesOnly
// set as given; the DAG is the same either way.
func goldenDAG(seed int64, endTimesOnly bool) *Sim {
	rng := rand.New(rand.NewSource(seed))
	gpus := 1 + rng.Intn(4)
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
	cfg.EndTimesOnly = endTimesOnly
	s := NewSim(cfg)

	n := 60 + rng.Intn(80)
	var ids []OpID
	streams := newStreams(s, 5)
	opts := func() []OpOption {
		var o []OpOption
		if rng.Intn(2) == 0 {
			o = append(o, WithStream(streams[rng.Intn(5)]))
		}
		if len(ids) > 0 && rng.Intn(3) == 0 {
			o = append(o, WithDeps(ids[rng.Intn(len(ids))]))
		}
		if rng.Intn(3) == 0 {
			o = append(o, WithPriority(rng.Intn(3)))
		}
		if rng.Intn(5) == 0 {
			o = append(o, WithTag(fmt.Sprintf("t%d", rng.Intn(3))))
		}
		return o
	}
	for i := 0; i < n; i++ {
		var id OpID
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // kernels dominate real DAGs
			k := Kernel{
				Name:   fmt.Sprintf("k%d", i),
				Work:   rng.Float64() * 80,
				Demand: Demand{SM: rng.Float64(), MemBW: rng.Float64()},
				Tag:    "train",
			}
			switch rng.Intn(3) {
			case 0:
				k.LaunchOverhead = -1
			case 1:
				k.LaunchOverhead = 1 + rng.Float64()*6
			}
			if rng.Intn(4) == 0 {
				k.Work = 0 // zero-work kernels stress the dt=0 path
			}
			id = s.AddKernel(rng.Intn(gpus), k, opts()...)
		case 5:
			src, dst := rng.Intn(gpus), rng.Intn(gpus)
			id = s.AddComm(fmt.Sprintf("c%d", i), src, dst, rng.Float64()*2e6, opts()...)
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
	return s
}

// digestResult is the test-local alias of the exported ResultDigest
// (digest.go); the golden files were captured through this path.
func digestResult(r *Result) string { return ResultDigest(r) }

func goldenDigestPath() string {
	return filepath.Join("testdata", fmt.Sprintf("golden_digests_%s.json", runtime.GOARCH))
}

// TestGoldenDigests replays the seeded DAGs and compares the bit-exact
// result digests against the file captured from the pre-optimization
// engine, projected once when utilization segments lost their tag
// shares (shares dropped, contiguous equal segments merged). Regenerate with GPUSIM_UPDATE_GOLDEN=1 (only legitimate when
// intentionally changing simulator semantics).
func TestGoldenDigests(t *testing.T) {
	digests := make([]string, goldenSeeds)
	for seed := 0; seed < goldenSeeds; seed++ {
		res, err := buildGoldenDAG(int64(seed)).Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		digests[seed] = digestResult(res)
	}
	path := goldenDigestPath()
	if os.Getenv("GPUSIM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(digests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(digests), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		// Digests are arch-specific (float codegen differs across
		// architectures); absence on a new platform is not a failure.
		t.Skipf("no golden digest file for %s: %v", runtime.GOARCH, err)
	}
	var want []string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(digests) {
		t.Fatalf("golden file has %d digests, want %d (regenerate with GPUSIM_UPDATE_GOLDEN=1)", len(want), len(digests))
	}
	for seed, d := range digests {
		if d != want[seed] {
			t.Errorf("seed %d: result digest %s != golden %s (engine results changed)", seed, d[:12], want[seed][:12])
		}
	}
}
