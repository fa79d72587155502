package experiments

import (
	"fmt"

	"rap/internal/baselines"
	"rap/internal/gpusim"
)

// PowerRow is one system's energy profile for the same training work.
type PowerRow struct {
	System baselines.System
	// JoulesPerMSample is energy per million trained samples.
	JoulesPerMSample float64
	// GPUWatts / HostWatts are mean draws during steady training.
	GPUWatts  float64
	HostWatts float64
	// PreprocPowerShare is the host tier's share of total power — the
	// paper's §2.1 motivation metric ("input preprocessing ... account
	// for over 50% of power consumption, surpassing even the power
	// usage of GPU trainers").
	PreprocPowerShare float64
	Throughput        float64
}

// PowerResult is the preprocessing-energy study.
type PowerResult struct {
	Plan int
	GPUs int
	Rows []PowerRow
}

// PowerStudy quantifies the paper's motivating claim: with CPU-tier
// preprocessing (TorchArrow) the host pool burns power comparable to the
// trainers while throttling them; RAP reuses the trainers' leftover
// cycles, so the host tier idles and every joule buys more samples.
//
//rap:deterministic
func PowerStudy(plan, gpus int) (*PowerResult, error) {
	if gpus <= 0 {
		gpus = 4
	}
	w, err := workloadFor(plan, 4096)
	if err != nil {
		return nil, err
	}
	pm := gpusim.DefaultPowerModel()
	res := &PowerResult{Plan: plan, GPUs: gpus}
	for _, sys := range []baselines.System{baselines.SystemTorchArrow, baselines.SystemSequential, baselines.SystemRAP, baselines.SystemIdeal} {
		r, err := runSystem(sys, w, gpus)
		if err != nil {
			return nil, err
		}
		e := r.Stats.Result.Energy(pm, gpus, HostCores)
		trainedSamples := r.Throughput * e.MakespanUs * 1e-6
		row := PowerRow{
			System:     sys,
			GPUWatts:   e.AvgGPUWatts(),
			HostWatts:  e.AvgHostWatts(),
			Throughput: r.Throughput,
		}
		if trainedSamples > 0 {
			row.JoulesPerMSample = e.Total() / trainedSamples * 1e6
		}
		if total := e.AvgGPUWatts() + e.AvgHostWatts(); total > 0 {
			row.PreprocPowerShare = e.AvgHostWatts() / total
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// row returns the entry for a system.
func (r *PowerResult) row(sys baselines.System) PowerRow {
	for _, row := range r.Rows {
		if row.System == sys {
			return row
		}
	}
	return PowerRow{}
}

// EnergySaving returns TorchArrow's energy-per-sample divided by RAP's.
func (r *PowerResult) EnergySaving() float64 {
	ta := r.row(baselines.SystemTorchArrow).JoulesPerMSample
	rp := r.row(baselines.SystemRAP).JoulesPerMSample
	if rp <= 0 {
		return 0
	}
	return ta / rp
}

// Render prints the power comparison.
func (r *PowerResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			string(row.System),
			fmt.Sprintf("%.0f", row.Throughput),
			fmt.Sprintf("%.0f", row.GPUWatts),
			fmt.Sprintf("%.0f", row.HostWatts),
			fmt.Sprintf("%.0f%%", row.PreprocPowerShare*100),
			fmt.Sprintf("%.1f", row.JoulesPerMSample),
		})
	}
	return fmt.Sprintf("Power study (§2.1 motivation): plan %d, %d GPUs\n\n", r.Plan, r.GPUs) +
		table([]string{"system", "samples/s", "GPU W", "host W", "host power share", "J per 1M samples"}, rows) +
		fmt.Sprintf("\nRAP trains the same samples with %.1fx less energy than the CPU-preprocessing setup.\n",
			r.EnergySaving())
}
