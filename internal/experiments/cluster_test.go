package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	clustersim "rap/internal/cluster"
	"rap/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/cluster_smoke_digests.txt from the current fleet simulator")

// TestClusterSmokeDigests pins both placement policies' fleet digests on
// two small 2-node × 4-GPU traces, so a change anywhere under the fleet
// simulator — placement, tenant fabric congestion, the pipelines it
// runs — shows up as a digest diff across commits, not only as the
// rerun mismatch `rapbench -cluster-smoke` checks. The first trace is
// the cluster-smoke configuration; no job in it shares a node while
// spanning two, so the second trace (seed 2) is the one that runs a
// split job against a congested fabric link. The digests live in
// testdata/cluster_smoke_digests.txt; regenerate them deliberately with
// `go test ./internal/experiments -run ClusterSmokeDigests -update`.
func TestClusterSmokeDigests(t *testing.T) {
	var got strings.Builder
	congested := 0
	for _, cfg := range []ClusterSweepConfig{
		{Nodes: 2, GPUsPerNode: 4, Jobs: 6, MeanGapUs: 500},
		{Nodes: 2, GPUsPerNode: 4, Jobs: 6, MeanGapUs: 500, Seed: 2},
	} {
		res, err := ClusterSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			fmt.Fprintf(&got, "seed %d %s %s\n", res.Seed, row.Policy, row.Digest)
		}
		congested += congestedJobs(t, cfg)
	}
	compareDigestFile(t, "cluster_smoke_digests.txt", got.String())
	// The pins cover tenant congestion only if some job ran with it.
	if congested == 0 {
		t.Error("no job spanned both nodes while another job ran; the pins do not cover tenant congestion")
	}
}

// congestedJobs reruns ClusterSweep's trace under both policies and
// counts jobs that spanned both nodes of the 2-node fleet while another
// job was running. Every co-resident job shares a node with such a job,
// so each one ran against a congested fabric link. Scheduling is FIFO
// without backfill, so the jobs already running when j starts are the
// ones ahead of it in (arrival, ID) order that end after j's start.
func congestedJobs(t *testing.T, cfg ClusterSweepConfig) int {
	t.Helper()
	cfg = cfg.withDefaults()
	if cfg.Nodes != 2 {
		t.Fatalf("congestedJobs needs a 2-node fleet, got %d", cfg.Nodes)
	}
	fleet := topo.Uniform(cfg.Nodes, cfg.GPUsPerNode)
	fleet.FabricGBs = cfg.FabricGBs
	fleet.Oversub = cfg.Oversub
	jobs, err := clustersim.GenerateJobs(clustersim.GenConfig{
		Seed: cfg.Seed, NumJobs: cfg.Jobs, MeanGapUs: cfg.MeanGapUs, MaxGPUs: fleet.NumGPUs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pol := range []clustersim.Policy{clustersim.Pack{}, clustersim.FirstFit{}} {
		sim, err := clustersim.New(clustersim.Config{Topo: fleet, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Simulate(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range rep.Results {
			if j.Nodes < 2 {
				continue
			}
			for _, o := range rep.Results {
				ahead := o.ArrivalUs < j.ArrivalUs || (!(o.ArrivalUs > j.ArrivalUs) && o.ID < j.ID)
				if ahead && j.StartUs < o.EndUs {
					n++
					break
				}
			}
		}
	}
	return n
}

// compareDigestFile compares got, one pinned result per line, with
// testdata/<name>, or rewrites the file under -update.
func compareDigestFile(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\ngot:\n%swant:\n%s", path, got, want)
	}
}
