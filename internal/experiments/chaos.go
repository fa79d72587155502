package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"rap/internal/baselines"
	"rap/internal/chaos"
	"rap/internal/trace"
)

// ChaosSystems lists the systems the perturbation sweep compares: RAP
// against the three GPU-sharing baselines. TorchArrow and Ideal are
// excluded — the sweep studies how GPU-sharing strategies absorb GPU-side
// adversity, which barely touches a CPU-preprocessing or
// no-preprocessing system.
func ChaosSystems() []baselines.System {
	return []baselines.System{
		baselines.SystemSequential,
		baselines.SystemStream,
		baselines.SystemMPS,
		baselines.SystemRAP,
	}
}

// ChaosCell is one (system, severity) measurement.
type ChaosCell struct {
	System   baselines.System `json:"system"`
	Severity float64          `json:"severity"`
	// MakespanUs is the perturbed end-to-end makespan.
	MakespanUs float64 `json:"makespan_us"`
	// BaseMakespanUs is the same system's unperturbed makespan.
	BaseMakespanUs float64 `json:"base_makespan_us"`
	// DegradationPct is 100·(makespan−base)/base.
	DegradationPct float64 `json:"degradation_pct"`
	// Throughput is perturbed steady-state samples/s.
	Throughput float64 `json:"throughput"`
}

// ChaosResult is the perturbation-severity sweep: per-system makespan
// degradation under shared, seeded adverse conditions.
type ChaosResult struct {
	Plan       int          `json:"plan"`
	GPUs       int          `json:"gpus"`
	Seed       int64        `json:"seed"`
	HorizonUs  float64      `json:"horizon_us"`
	Severities []float64    `json:"severities"`
	Cells      []ChaosCell  `json:"cells"`
	Plans      []chaos.Plan `json:"plans"`
}

// ChaosSweep measures how gracefully each GPU-sharing strategy degrades
// under injected adversity. For every severity level one plan is
// generated from the seed (windows covering the unperturbed horizon)
// and applied to every system identically, so rows are comparable: the
// only varying factor is the sharing strategy.
func ChaosSweep(plan, gpus int, severities []float64, seed int64) (*ChaosResult, error) {
	if len(severities) == 0 {
		severities = []float64{0.25, 0.5, 0.75}
	}
	if gpus <= 0 {
		gpus = 4
	}
	w, err := workloadFor(plan, 4096)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Plan: plan, GPUs: gpus, Seed: seed, Severities: severities}

	// Unperturbed baselines first: per-system reference makespans, and
	// the horizon perturbation windows must cover.
	base := map[baselines.System]float64{}
	for _, sys := range ChaosSystems() {
		r, err := baselines.RunChaos(sys, w, cluster(gpus), Iterations, nil)
		if err != nil {
			return nil, err
		}
		base[sys] = r.Stats.Result.Makespan
		if r.Stats.Result.Makespan > res.HorizonUs {
			res.HorizonUs = r.Stats.Result.Makespan
		}
	}

	for _, sev := range severities {
		cp, err := chaos.NewPlan(seed, chaos.Scenario{
			NumGPUs:   gpus,
			HorizonUs: res.HorizonUs,
			Severity:  sev,
		})
		if err != nil {
			return nil, err
		}
		res.Plans = append(res.Plans, *cp)
		for _, sys := range ChaosSystems() {
			r, err := baselines.RunChaos(sys, w, cluster(gpus), Iterations, cp)
			if err != nil {
				return nil, err
			}
			mk := r.Stats.Result.Makespan
			cell := ChaosCell{
				System:         sys,
				Severity:       sev,
				MakespanUs:     mk,
				BaseMakespanUs: base[sys],
				Throughput:     r.Throughput,
			}
			if cell.BaseMakespanUs > 0 {
				cell.DegradationPct = 100 * (mk - cell.BaseMakespanUs) / cell.BaseMakespanUs
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

func (r *ChaosResult) lookup(sys baselines.System, sev float64) *ChaosCell {
	for i := range r.Cells {
		//lint:ignore floateq severity keys are copied verbatim from r.Severities
		if r.Cells[i].System == sys && r.Cells[i].Severity == sev {
			return &r.Cells[i]
		}
	}
	return nil
}

// WriteChaosTrace re-runs RAP under the sweep's highest-severity plan
// and writes the Chrome trace with the perturbation windows rendered as
// annotation spans, so the timeline shows which stretches the windows
// caused.
func (r *ChaosResult) WriteChaosTrace(w io.Writer) error {
	if len(r.Plans) == 0 {
		return fmt.Errorf("experiments: chaos sweep carries no perturbation plans")
	}
	wl, err := workloadFor(r.Plan, 4096)
	if err != nil {
		return err
	}
	cp := r.Plans[len(r.Plans)-1]
	run, err := baselines.RunChaos(baselines.SystemRAP, wl, cluster(r.GPUs), Iterations, &cp)
	if err != nil {
		return err
	}
	return trace.WriteChromeTraceWithSpans(w, run.Stats.Result, r.GPUs, cp.Spans())
}

// WriteJSON emits the machine-readable sweep report.
func (r *ChaosResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints per-system makespan degradation by severity.
func (r *ChaosResult) Render() string {
	header := []string{"system", "base (ms)"}
	for _, sev := range r.Severities {
		header = append(header, fmt.Sprintf("sev %.2f", sev))
	}
	var rows [][]string
	for _, sys := range ChaosSystems() {
		row := []string{string(sys), "-"}
		for _, sev := range r.Severities {
			c := r.lookup(sys, sev)
			if c == nil {
				row = append(row, "-")
				continue
			}
			row[1] = fmt.Sprintf("%.2f", c.BaseMakespanUs/1e3)
			row = append(row, fmt.Sprintf("+%.1f%%", c.DegradationPct))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Chaos sweep: makespan degradation under seeded perturbation (plan%d, %d GPUs, seed %d)\n\n",
		r.Plan, r.GPUs, r.Seed) +
		table(header, rows) +
		"\nEvery system runs under the identical perturbation plan per severity; lower degradation = more graceful.\n"
}
