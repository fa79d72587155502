// Package experiments regenerates every table and figure of the RAP
// paper's evaluation (§8) on the simulated substrate. Each experiment is
// a function returning a typed result with a Render method that prints
// the same rows/series the paper reports; cmd/rapbench and bench_test.go
// drive them. See DESIGN.md §3 for the experiment ↔ module index and
// EXPERIMENTS.md for paper-vs-measured numbers.
package experiments

import (
	"fmt"
	"strings"

	"rap/internal/baselines"
	"rap/internal/gpusim"
	"rap/internal/rap"
)

// Iterations is the pipeline length simulated per measurement; the first
// two iterations are warmup.
const Iterations = 10

// Seed is the global experiment seed.
const Seed = 1

// cluster builds the standard experiment cluster.
func cluster(numGPUs int) gpusim.ClusterConfig {
	return gpusim.ClusterConfig{NumGPUs: numGPUs, HostCores: rap.HostCores}
}

// timelineCluster is cluster with utilization timelines recorded, for
// the studies that read them: Figure 1(a), Table 4 (Figure 11) and the
// power study.
func timelineCluster(numGPUs int) gpusim.ClusterConfig {
	c := cluster(numGPUs)
	c.Timelines = true
	return c
}

// workloadFor builds the (dataset, plan, batch) workload used throughout
// §8: plan 0 runs on Criteo Kaggle, plans 1-3 on Criteo Terabyte
// (Table 3).
func workloadFor(plan, batch int) (*rap.Workload, error) {
	ds := rap.Terabyte
	if plan == 0 {
		ds = rap.Kaggle
	}
	return rap.NewWorkload(ds, plan, batch, Seed)
}

// table renders rows of columns with a header, padded.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range widths {
		header[i] = strings.Repeat("-", w)
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// runSystem measures one system on one workload/cluster.
func runSystem(sys baselines.System, w *rap.Workload, gpus int) (baselines.RunResult, error) {
	return baselines.Run(sys, w, cluster(gpus), Iterations)
}
