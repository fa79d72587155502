package experiments

import (
	"testing"

	clustersim "rap/internal/cluster"
	"rap/internal/topo"
)

// TestClusterSmokeDigests pins both placement policies' fleet digests on
// two small 2-node × 4-GPU traces, so a change anywhere under the fleet
// simulator — placement, tenant fabric congestion, the pipelines it
// runs — shows up as a digest diff across commits, not only as the
// rerun mismatch `rapbench -cluster-smoke` checks. The first trace is
// the cluster-smoke configuration; no job in it shares a node while
// spanning two, so the second trace (seed 2) is the one that runs a
// split job against a congested fabric link.
func TestClusterSmokeDigests(t *testing.T) {
	cases := []struct {
		cfg  ClusterSweepConfig
		want map[string]string
	}{
		{
			cfg: ClusterSweepConfig{Nodes: 2, GPUsPerNode: 4, Jobs: 6, MeanGapUs: 500},
			want: map[string]string{
				"pack":      "6795c116fdce1cd492efe7daffc576246ba3e4dc016128025e55900089af8ff8",
				"first-fit": "54c48c22d214f64a92e4dd26770897d7b6ba9677d98181e860b3d163b13b79b5",
			},
		},
		{
			cfg: ClusterSweepConfig{Nodes: 2, GPUsPerNode: 4, Jobs: 6, MeanGapUs: 500, Seed: 2},
			want: map[string]string{
				"pack":      "cce69c3e8e3f3847c60d21f388b9a266b36d9b50458f2ca67d605430080944b5",
				"first-fit": "93a1eca342efe89548dbc435e5b4ac1ae0d500f219eeb5f7988b01b5a67d8057",
			},
		},
	}
	congested := 0
	for _, c := range cases {
		res, err := ClusterSweep(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(c.want) {
			t.Fatalf("seed %d: got %d policy rows, want %d", res.Seed, len(res.Rows), len(c.want))
		}
		for _, row := range res.Rows {
			if row.Digest != c.want[row.Policy] {
				t.Errorf("seed %d: policy %s digest %s, want %s", res.Seed, row.Policy, row.Digest, c.want[row.Policy])
			}
		}
		congested += congestedJobs(t, c.cfg)
	}
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
		sim, err := clustersim.New(clustersim.Config{Topo: fleet, Policy: pol, HostCores: HostCores})
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
