package experiments

import (
	"fmt"

	"rap/internal/baselines"
	"rap/internal/rap"
)

// Figure10Setting is one bar group of the speedup-breakdown study.
type Figure10Setting string

// The Figure 10 settings.
const (
	F10Sequential Figure10Setting = "Sequential"
	F10MPS        Figure10Setting = "MPS"
	F10NoMapping  Figure10Setting = "RAP w/o mapping"
	F10NoFusion   Figure10Setting = "RAP w/o fusion"
	F10RAP        Figure10Setting = "RAP"
	F10Ideal      Figure10Setting = "Ideal"
)

// Figure10Settings lists the settings in presentation order.
func Figure10Settings() []Figure10Setting {
	return []Figure10Setting{F10Sequential, F10MPS, F10NoMapping, F10NoFusion, F10RAP, F10Ideal}
}

// Figure10Cell is one (plan, setting) throughput.
type Figure10Cell struct {
	Plan       int
	Setting    Figure10Setting
	Throughput float64
}

// Figure10Result is the speedup breakdown and optimality analysis.
type Figure10Result struct {
	GPUs  int
	Cells []Figure10Cell
}

// Figure10 runs the ablation: Sequential, MPS, RAP without inter-GPU
// mapping (batch-parallel mapping, everything else on), RAP without
// horizontal fusion, full RAP, and the preprocessing-free Ideal.
//
//rap:deterministic
func Figure10(plans []int, gpus int) (*Figure10Result, error) {
	if len(plans) == 0 {
		plans = []int{1, 2, 3}
	}
	if gpus <= 0 {
		gpus = 8
	}
	res := &Figure10Result{GPUs: gpus}
	for _, plan := range plans {
		w, err := workloadFor(plan, 4096)
		if err != nil {
			return nil, err
		}
		add := func(s Figure10Setting, thr float64) {
			res.Cells = append(res.Cells, Figure10Cell{Plan: plan, Setting: s, Throughput: thr})
		}
		for _, pair := range []struct {
			setting Figure10Setting
			system  baselines.System
		}{
			{F10Sequential, baselines.SystemSequential},
			{F10MPS, baselines.SystemMPS},
			{F10RAP, baselines.SystemRAP},
			{F10Ideal, baselines.SystemIdeal},
		} {
			r, err := runSystem(pair.system, w, gpus)
			if err != nil {
				return nil, err
			}
			add(pair.setting, r.Throughput)
		}
		// Ablations run through the framework directly.
		for _, ab := range []struct {
			setting Figure10Setting
			opts    rap.BuildOptions
		}{
			{F10NoMapping, rap.BuildOptions{Strategy: rap.MapDataParallel}},
			{F10NoFusion, rap.BuildOptions{NoFusion: true}},
		} {
			f := rap.New(w, cluster(gpus))
			p, err := f.BuildPlan(ab.opts)
			if err != nil {
				return nil, err
			}
			stats, err := f.Execute(p, Iterations)
			if err != nil {
				return nil, err
			}
			add(ab.setting, stats.Throughput)
		}
	}
	return res, nil
}

func (r *Figure10Result) lookup(plan int, s Figure10Setting) float64 {
	for _, c := range r.Cells {
		if c.Plan == plan && c.Setting == s {
			return c.Throughput
		}
	}
	return 0
}

// GapFromIdeal returns RAP's mean relative throughput deficit vs Ideal
// (the paper's 3.24% headline).
func (r *Figure10Result) GapFromIdeal() float64 {
	sum, n := 0.0, 0
	seen := map[int]bool{}
	for _, c := range r.Cells {
		if seen[c.Plan] {
			continue
		}
		seen[c.Plan] = true
		ideal := r.lookup(c.Plan, F10Ideal)
		rapThr := r.lookup(c.Plan, F10RAP)
		if ideal > 0 && rapThr > 0 {
			sum += 1 - rapThr/ideal
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints speedups normalized to Sequential, per plan.
func (r *Figure10Result) Render() string {
	header := []string{"plan"}
	for _, s := range Figure10Settings() {
		header = append(header, string(s))
	}
	var rows [][]string
	seen := map[int]bool{}
	for _, c := range r.Cells {
		if seen[c.Plan] {
			continue
		}
		seen[c.Plan] = true
		base := r.lookup(c.Plan, F10Sequential)
		row := []string{fmt.Sprintf("plan%d", c.Plan)}
		for _, s := range Figure10Settings() {
			row = append(row, fmt.Sprintf("%.2fx", r.lookup(c.Plan, s)/base))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Figure 10: speedup breakdown and optimality analysis (%d GPUs, normalized to Sequential)\n\n", r.GPUs) +
		table(header, rows) +
		fmt.Sprintf("\nRAP is %.2f%% below the Ideal (no preprocessing) throughput on average.\n", r.GapFromIdeal()*100)
}
