package experiments

import (
	"fmt"

	"rap/internal/baselines"
)

// Figure9Cell is one (plan, batch, gpus, system) throughput measurement.
type Figure9Cell struct {
	Plan    int
	Batch   int
	GPUs    int
	System  baselines.System
	Samples float64 // global samples/s
}

// Figure9Result is the end-to-end training-throughput comparison.
type Figure9Result struct {
	Cells []Figure9Cell
}

// Figure9Config selects the sweep subset (the full grid is expensive).
type Figure9Config struct {
	Plans   []int
	Batches []int
	GPUs    []int
	Systems []baselines.System
}

// DefaultFigure9 is the paper's full grid: plans 0-3 × batch
// {4096, 8192} × {2, 4, 8} GPUs × all systems.
func DefaultFigure9() Figure9Config {
	return Figure9Config{
		Plans:   []int{0, 1, 2, 3},
		Batches: []int{4096, 8192},
		GPUs:    []int{2, 4, 8},
		Systems: baselines.AllSystems(),
	}
}

// QuickFigure9 is a reduced grid for smoke tests and benchmarks.
func QuickFigure9() Figure9Config {
	return Figure9Config{
		Plans:   []int{1},
		Batches: []int{4096},
		GPUs:    []int{4},
		Systems: baselines.AllSystems(),
	}
}

// Figure9 runs the end-to-end DLRM training throughput comparison
// (Figure 9 a/b/c: 2/4/8 GPUs).
//
//rap:deterministic
func Figure9(cfg Figure9Config) (*Figure9Result, error) {
	res := &Figure9Result{}
	for _, plan := range cfg.Plans {
		for _, batch := range cfg.Batches {
			w, err := workloadFor(plan, batch)
			if err != nil {
				return nil, err
			}
			for _, gpus := range cfg.GPUs {
				for _, sys := range cfg.Systems {
					r, err := runSystem(sys, w, gpus)
					if err != nil {
						return nil, fmt.Errorf("figure9 plan%d b%d g%d %s: %w", plan, batch, gpus, sys, err)
					}
					res.Cells = append(res.Cells, Figure9Cell{
						Plan: plan, Batch: batch, GPUs: gpus, System: sys, Samples: r.Throughput,
					})
				}
			}
		}
	}
	return res, nil
}

// lookup returns the throughput of a cell, or 0.
func (r *Figure9Result) lookup(plan, batch, gpus int, sys baselines.System) float64 {
	for _, c := range r.Cells {
		if c.Plan == plan && c.Batch == batch && c.GPUs == gpus && c.System == sys {
			return c.Samples
		}
	}
	return 0
}

// Speedups aggregates RAP's mean speedup over each baseline across the
// measured grid (the paper's headline averages).
func (r *Figure9Result) Speedups() map[baselines.System]float64 {
	sums := map[baselines.System]float64{}
	counts := map[baselines.System]int{}
	for _, c := range r.Cells {
		if c.System == baselines.SystemRAP {
			continue
		}
		rapThr := r.lookup(c.Plan, c.Batch, c.GPUs, baselines.SystemRAP)
		if rapThr <= 0 || c.Samples <= 0 {
			continue
		}
		sums[c.System] += rapThr / c.Samples
		counts[c.System]++
	}
	out := map[baselines.System]float64{}
	for sys, s := range sums {
		out[sys] = s / float64(counts[sys])
	}
	return out
}

// Render prints per-configuration rows plus the headline averages.
func (r *Figure9Result) Render() string {
	seen := map[[3]int]bool{}
	var rows [][]string
	for _, c := range r.Cells {
		key := [3]int{c.Plan, c.Batch, c.GPUs}
		if seen[key] {
			continue
		}
		seen[key] = true
		row := []string{fmt.Sprintf("plan%d", c.Plan), fmt.Sprintf("%d", c.Batch), fmt.Sprintf("%d", c.GPUs)}
		for _, sys := range baselines.AllSystems() {
			row = append(row, fmt.Sprintf("%.0f", r.lookup(c.Plan, c.Batch, c.GPUs, sys)))
		}
		rows = append(rows, row)
	}
	header := []string{"plan", "batch", "gpus"}
	for _, sys := range baselines.AllSystems() {
		header = append(header, string(sys))
	}
	out := "Figure 9: end-to-end DLRM training throughput (global samples/s)\n\n" + table(header, rows)
	out += "\nRAP mean speedups: "
	speedups := r.Speedups()
	for _, sys := range []baselines.System{baselines.SystemSequential, baselines.SystemStream,
		baselines.SystemMPS, baselines.SystemTorchArrow, baselines.SystemIdeal} {
		if v, ok := speedups[sys]; ok {
			out += fmt.Sprintf("vs %s %.2fx  ", sys, v)
		}
	}
	return out + "\n"
}
