// Command rapbench regenerates the RAP paper's evaluation tables and
// figures on the simulated substrate.
//
// Usage:
//
//	rapbench -exp all                # everything (Figure 9 full grid is slow)
//	rapbench -exp fig9 -quick        # reduced Figure 9 grid
//	rapbench -exp fig1a,fig11,tab4   # comma-separated subset
//	rapbench -list                   # list experiment ids
//	rapbench -cluster                # fleet scheduling at 1024 GPUs, write BENCH_cluster.json
//	rapbench -cluster-smoke          # fleet determinism gate (verify.sh)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"rap/internal/experiments"
)

type renderer interface{ Render() string }

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (see -list)")
	quick := flag.Bool("quick", false, "reduced grids for slow experiments")
	list := flag.Bool("list", false, "list experiment ids and exit")
	clusterMode := flag.Bool("cluster", false, "run the multi-tenant fleet-scheduling experiment and exit")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "output path for the -cluster JSON report")
	clusterNodes := flag.Int("cluster-nodes", 128, "fleet NVSwitch nodes for -cluster")
	clusterNodeGPUs := flag.Int("cluster-node-gpus", 8, "GPUs per node for -cluster")
	clusterJobs := flag.Int("cluster-jobs", 180, "job-trace length for -cluster")
	clusterSeed := flag.Int64("cluster-seed", 1, "seed for the -cluster job trace")
	clusterSmoke := flag.Bool("cluster-smoke", false, "quick fleet double-run digest equality check and exit (used by verify.sh)")
	flag.Usage = usage
	flag.Parse()

	if *clusterSmoke {
		if err := runClusterSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "rapbench: cluster-smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clusterMode {
		cfg := experiments.ClusterSweepConfig{
			Nodes:       *clusterNodes,
			GPUsPerNode: *clusterNodeGPUs,
			Jobs:        *clusterJobs,
			Seed:        *clusterSeed,
		}
		if *quick {
			cfg.Nodes, cfg.GPUsPerNode, cfg.Jobs = 8, 4, 24
		}
		if err := runCluster(*clusterOut, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "rapbench: cluster: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range expIDs {
			fmt.Println(id)
		}
		return
	}

	want, err := parseExps(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapbench: %v\n", err)
		os.Exit(1)
	}

	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "rapbench: %s: %v\n", id, err)
		os.Exit(1)
	}
	show := func(id string, r renderer, err error) {
		if err != nil {
			fail(id, err)
		}
		fmt.Printf("==================== %s ====================\n%s\n", id, r.Render())
	}

	if want["fig1a"] {
		r, err := experiments.Figure1a()
		show("fig1a", r, err)
	}
	if want["fig1b"] {
		r, err := experiments.Figure1b()
		show("fig1b", r, err)
	}
	if want["fig1c"] {
		r, err := experiments.Figure1c()
		show("fig1c", r, err)
	}
	if want["fig5"] {
		r, err := experiments.Figure5()
		show("fig5", r, err)
	}
	if want["tab5"] {
		r, err := experiments.Table5()
		show("tab5", r, err)
	}
	if want["fig9"] {
		cfg := experiments.DefaultFigure9()
		if *quick {
			cfg = experiments.QuickFigure9()
		}
		r, err := experiments.Figure9(cfg)
		show("fig9", r, err)
	}
	if want["fig10"] {
		plans := []int{1, 2, 3}
		gpus := 8
		if *quick {
			plans, gpus = []int{1}, 4
		}
		r, err := experiments.Figure10(plans, gpus)
		show("fig10", r, err)
	}
	if want["fig11"] || want["tab4"] {
		sweep := []int{0, 8, 16, 32, 64, 96, 128}
		gpus := 4
		if *quick {
			sweep, gpus = []int{0, 32, 96}, 2
		}
		r, err := experiments.Figure11(sweep, gpus)
		if err != nil {
			fail("fig11", err)
		}
		if want["fig11"] {
			show("fig11", r, nil)
		}
		if want["tab4"] {
			show("tab4", experiments.Table4(r), nil)
		}
	}
	if want["fig12"] {
		r, err := experiments.Figure12(4)
		show("fig12", r, err)
	}
	if want["power"] {
		r, err := experiments.PowerStudy(1, 4)
		show("power", r, err)
	}
}

// expIDs are the experiment ids -exp accepts, in -list order.
var expIDs = []string{"fig1a", "fig1b", "fig1c", "fig5", "tab5", "fig9", "fig10", "fig11", "tab4", "fig12", "power"}

// parseExps turns an -exp value into the set of experiments to run: the
// bare "all" selects every id, anything else is a comma-separated list
// in which every id must be one of expIDs.
func parseExps(s string) (map[string]bool, error) {
	ids := expIDs
	if s != "all" {
		ids = strings.Split(s, ",")
	}
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if !slices.Contains(expIDs, id) {
			return nil, fmt.Errorf("unknown experiment id %q in -exp %q; valid ids: all, %s", id, s, strings.Join(expIDs, ", "))
		}
		want[id] = true
	}
	return want, nil
}

// usage prints the mode-grouped help text, one group per family of
// rapbench entry points.
func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `rapbench regenerates the RAP paper's evaluation tables and benchmark reports.

Paper experiments (default mode):
  rapbench -exp all            every table and figure (Figure 9 full grid is slow)
  rapbench -exp fig9 -quick    reduced grids for slow experiments
  rapbench -list               list experiment ids

Benchmarks (each writes a JSON report and exits):
  rapbench -cluster            multi-tenant fleet scheduling (1024 simulated GPUs,
                               RAP-aware packing vs first-fit) -> BENCH_cluster.json

Smoke gates (used by scripts/verify.sh; exit non-zero on drift):
  rapbench -cluster-smoke      fleet simulation digest-stable across reruns

Flags:
`)
	flag.PrintDefaults()
}

// runCluster runs the fleet-scheduling experiment twice from scratch
// and demands bit-identical per-policy digests — the fleet-scale
// determinism the cluster simulator promises — then writes the JSON
// report and re-reads it as a self-check.
func runCluster(path string, cfg experiments.ClusterSweepConfig) error {
	start := time.Now()
	res, err := experiments.ClusterSweep(cfg)
	if err != nil {
		return err
	}
	again, err := experiments.ClusterSweep(cfg)
	if err != nil {
		return err
	}
	if len(res.Rows) != len(again.Rows) {
		return fmt.Errorf("rerun produced %d policy rows, want %d", len(again.Rows), len(res.Rows))
	}
	for i, row := range res.Rows {
		if again.Rows[i].Digest != row.Digest {
			return fmt.Errorf("policy %s digest drifted across reruns: %s vs %s",
				row.Policy, row.Digest[:16], again.Rows[i].Digest[:16])
		}
	}
	fmt.Print(res.Render())

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Self-check: the written report must parse and carry the digests
	// the determinism gate compares.
	back, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var check experiments.ClusterResult
	if err := json.Unmarshal(back, &check); err != nil {
		return fmt.Errorf("re-reading %s: %w", path, err)
	}
	if len(check.Rows) != len(res.Rows) {
		return fmt.Errorf("re-reading %s: %d rows, want %d", path, len(check.Rows), len(res.Rows))
	}
	for i, row := range check.Rows {
		if row.Digest == "" || row.Digest != res.Rows[i].Digest {
			return fmt.Errorf("re-reading %s: policy %s digest mismatch", path, row.Policy)
		}
	}

	fmt.Printf("\ncluster report -> %s (%d GPUs, %d jobs, double run in %s; digests stable)\n",
		path, res.GPUs, res.Jobs, time.Since(start).Round(time.Millisecond))
	return nil
}

// runClusterSmoke is the verify.sh gate: a 2-node x 4-GPU fleet with 6
// jobs, simulated twice from scratch; every policy's report digest
// must match bit for bit.
func runClusterSmoke() error {
	cfg := experiments.ClusterSweepConfig{Nodes: 2, GPUsPerNode: 4, Jobs: 6, MeanGapUs: 500}
	a, err := experiments.ClusterSweep(cfg)
	if err != nil {
		return err
	}
	b, err := experiments.ClusterSweep(cfg)
	if err != nil {
		return err
	}
	if len(a.Rows) != 2 || len(b.Rows) != 2 {
		return fmt.Errorf("expected 2 policy rows, got %d and %d", len(a.Rows), len(b.Rows))
	}
	for i, row := range a.Rows {
		if row.Digest == "" || row.Digest != b.Rows[i].Digest {
			return fmt.Errorf("policy %s digest diverged across reruns: %s vs %s",
				row.Policy, row.Digest[:16], b.Rows[i].Digest[:16])
		}
		if !(row.GPUUtil > 0 && row.GPUUtil <= 1) {
			return fmt.Errorf("policy %s utilization %g outside (0,1]", row.Policy, row.GPUUtil)
		}
		fmt.Printf("cluster-smoke: %s digest %s matches rerun (%d jobs on %d GPUs)\n",
			row.Policy, row.Digest[:16], a.Jobs, a.GPUs)
	}
	return nil
}
