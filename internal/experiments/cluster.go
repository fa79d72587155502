package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	clustersim "rap/internal/cluster"
	"rap/internal/topo"
)

// ClusterPolicyRow is one placement policy's fleet outcome.
type ClusterPolicyRow struct {
	Policy string `json:"policy"`
	// Digest is the report's bit-exact content hash; identical inputs
	// must reproduce it exactly.
	Digest     string  `json:"digest"`
	MakespanUs float64 `json:"makespan_us"`
	AvgQueueUs float64 `json:"avg_queue_us"`
	MaxQueueUs float64 `json:"max_queue_us"`
	AvgJCTUs   float64 `json:"avg_jct_us"`
	GPUUtil    float64 `json:"gpu_util"`
	// SplitJobs counts jobs whose allocation spans more than one node —
	// the fragmentation the packing policy exists to avoid.
	SplitJobs int `json:"split_jobs"`
}

// ClusterResult is the fleet-scheduling experiment: one seeded job
// trace on one hierarchical fleet, scheduled by RAP-aware packing
// versus naive first-fit.
type ClusterResult struct {
	Nodes       int                `json:"nodes"`
	GPUsPerNode int                `json:"gpus_per_node"`
	GPUs        int                `json:"gpus"`
	FabricGBs   float64            `json:"fabric_gbs"`
	Oversub     float64            `json:"oversub"`
	Jobs        int                `json:"jobs"`
	Seed        int64              `json:"seed"`
	MeanGapUs   float64            `json:"mean_gap_us"`
	Rows        []ClusterPolicyRow `json:"rows"`
}

// ClusterSweepConfig parameterizes ClusterSweep; zero values take the
// paper-scale defaults (128 nodes × 8 GPUs, 180 jobs — enough demand
// that jobs queue and fragmentation costs scheduling delay).
type ClusterSweepConfig struct {
	Nodes       int
	GPUsPerNode int
	FabricGBs   float64
	Oversub     float64
	Jobs        int
	Seed        int64
	MeanGapUs   float64
}

func (c ClusterSweepConfig) withDefaults() ClusterSweepConfig {
	if c.Nodes <= 0 {
		c.Nodes = 128
	}
	if c.GPUsPerNode <= 0 {
		c.GPUsPerNode = 8
	}
	if !(c.FabricGBs > 0) {
		c.FabricGBs = 100
	}
	if !(c.Oversub > 0) {
		c.Oversub = 4
	}
	if c.Jobs <= 0 {
		c.Jobs = 180
	}
	if c.Seed == 0 {
		c.Seed = Seed
	}
	if !(c.MeanGapUs > 0) {
		c.MeanGapUs = 2000
	}
	return c
}

// ClusterSweep runs one seeded job trace through both placement
// policies on the same fleet, measuring what RAP-aware packing buys at
// fleet scale: fewer node-spanning allocations, hence less
// oversubscribed-fabric contention, hence shorter job completion times.
// Everything is deterministic — rerunning reproduces each policy's
// digest bit-for-bit.
//
//rap:deterministic
func ClusterSweep(cfg ClusterSweepConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	fleet := topo.Uniform(cfg.Nodes, cfg.GPUsPerNode)
	fleet.FabricGBs = cfg.FabricGBs
	fleet.Oversub = cfg.Oversub

	jobs, err := clustersim.GenerateJobs(clustersim.GenConfig{
		Seed:      cfg.Seed,
		NumJobs:   cfg.Jobs,
		MeanGapUs: cfg.MeanGapUs,
		MaxGPUs:   fleet.NumGPUs(),
	})
	if err != nil {
		return nil, err
	}

	res := &ClusterResult{
		Nodes:       cfg.Nodes,
		GPUsPerNode: cfg.GPUsPerNode,
		GPUs:        fleet.NumGPUs(),
		FabricGBs:   cfg.FabricGBs,
		Oversub:     cfg.Oversub,
		Jobs:        cfg.Jobs,
		Seed:        cfg.Seed,
		MeanGapUs:   cfg.MeanGapUs,
	}
	for _, pol := range []clustersim.Policy{clustersim.Pack{}, clustersim.FirstFit{}} {
		sim, err := clustersim.New(clustersim.Config{Topo: fleet, Policy: pol})
		if err != nil {
			return nil, err
		}
		rep, err := sim.Simulate(jobs)
		if err != nil {
			return nil, err
		}
		row := ClusterPolicyRow{
			Policy:     rep.Policy,
			Digest:     rep.Digest(),
			MakespanUs: rep.MakespanUs,
			AvgQueueUs: rep.AvgQueueUs,
			MaxQueueUs: rep.MaxQueueUs,
			AvgJCTUs:   rep.AvgJCTUs,
			GPUUtil:    rep.GPUUtil,
		}
		for _, jr := range rep.Results {
			if jr.Nodes > 1 {
				row.SplitJobs++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteJSON emits the machine-readable fleet report.
func (r *ClusterResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints the policy comparison.
func (r *ClusterResult) Render() string {
	header := []string{"policy", "avg JCT (ms)", "avg queue (ms)", "max queue (ms)", "makespan (ms)", "util", "split jobs"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy,
			fmt.Sprintf("%.2f", row.AvgJCTUs/1e3),
			fmt.Sprintf("%.2f", row.AvgQueueUs/1e3),
			fmt.Sprintf("%.2f", row.MaxQueueUs/1e3),
			fmt.Sprintf("%.2f", row.MakespanUs/1e3),
			fmt.Sprintf("%.1f%%", 100*row.GPUUtil),
			fmt.Sprintf("%d", row.SplitJobs),
		})
	}
	return fmt.Sprintf("Cluster fleet: %d nodes × %d GPUs (fabric %g GB/s, oversub %g), %d jobs, seed %d\n\n",
		r.Nodes, r.GPUsPerNode, r.FabricGBs, r.Oversub, r.Jobs, r.Seed) +
		table(header, rows) +
		"\nRAP-aware packing minimizes node-spanning allocations, keeping all-to-all traffic off the oversubscribed fabric.\n"
}
