package experiments

import (
	"fmt"
	"strings"

	"rap/internal/dlrm"
	"rap/internal/gpusim"
	"rap/internal/preproc"
	"rap/internal/sched"
)

// Figure1aResult is the DRAM-bandwidth + SM-utilization trace over two
// bare training iterations (the fluctuation RAP harvests).
type Figure1aResult struct {
	// Samples is GPU 0's utilization resampled at SampleDt µs.
	Samples  []gpusim.Sample
	SampleDt float64
	// IterLatency is one iteration's duration.
	IterLatency float64
}

// Figure1a profiles two training iterations of the Criteo-Kaggle model
// on 4 GPUs with no preprocessing.
//
//rap:deterministic
func Figure1a() (*Figure1aResult, error) {
	w, err := workloadFor(0, 4096)
	if err != nil {
		return nil, err
	}
	const gpus = 4
	pl := dlrm.PlaceTables(w.Model.TableSizes, gpus)
	stats, err := sched.BuildAndRun(timelineCluster(gpus), w.Model, pl, make([]sched.GPUWork, gpus), sched.PipelineOptions{Iterations: 4})
	if err != nil {
		return nil, err
	}
	// Window: iterations 2 and 3 (steady state).
	start := stats.IterEnds[1]
	end := stats.IterEnds[3]
	dt := (end - start) / 160
	var window []gpusim.Sample
	for _, s := range stats.Result.UtilSeries(0, dt) {
		if s.T >= start && s.T <= end {
			s.T -= start
			window = append(window, s)
		}
	}
	return &Figure1aResult{Samples: window, SampleDt: dt, IterLatency: stats.SteadyIterLatency}, nil
}

// Render prints the series as sparkline-style rows plus summary numbers.
func (r *Figure1aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1(a): SM and DRAM-bandwidth utilization over two training iterations\n")
	fmt.Fprintf(&b, "(iteration latency %.0f us; %d samples at %.0f us)\n\n", r.IterLatency, len(r.Samples), r.SampleDt)
	spark := func(pick func(gpusim.Sample) float64) string {
		glyphs := []rune(" .:-=+*#%@")
		var sb strings.Builder
		for _, s := range r.Samples {
			v := pick(s)
			idx := int(v * float64(len(glyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(glyphs) {
				idx = len(glyphs) - 1
			}
			sb.WriteRune(glyphs[idx])
		}
		return sb.String()
	}
	fmt.Fprintf(&b, "SM util:   |%s|\n", spark(func(s gpusim.Sample) float64 { return s.SM }))
	fmt.Fprintf(&b, "DRAM bw:   |%s|\n", spark(func(s gpusim.Sample) float64 { return s.MemBW }))
	var minSM, maxSM float64 = 1, 0
	for _, s := range r.Samples {
		if s.SM < minSM {
			minSM = s.SM
		}
		if s.SM > maxSM {
			maxSM = s.SM
		}
	}
	fmt.Fprintf(&b, "\nSM utilization fluctuates between %.0f%% and %.0f%% — the leftover RAP harvests.\n",
		minSM*100, maxSM*100)
	return b.String()
}

// Figure1bRow is one point of the NGram-size study.
type Figure1bRow struct {
	Features int
	Warps    int
	SMUtil   float64 // fraction
	DRAMUtil float64
	GPUUtil  float64 // busy fraction: 1 while the kernel runs
	SoloUs   float64
}

// Figure1bResult is the kernel-size → utilization relationship.
type Figure1bResult struct{ Rows []Figure1bRow }

// Figure1b profiles the NGram kernel with a growing number of input
// features (4096 samples per feature, as in the paper).
//
//rap:deterministic
func Figure1b() (*Figure1bResult, error) {
	res := &Figure1bResult{}
	for _, features := range []int{8, 16, 32, 64, 128} {
		ins := make([]string, features)
		for i := range ins {
			ins[i] = fmt.Sprintf("f%d", i)
		}
		op := preproc.NewNGram("ngram", ins, "out", 3, 1<<20)
		spec := op.Spec(preproc.Shape{Samples: 4096, AvgListLen: 1})
		d := spec.Demand()
		res.Rows = append(res.Rows, Figure1bRow{
			Features: features,
			Warps:    spec.Warps(),
			SMUtil:   d.SM,
			DRAMUtil: d.MemBW,
			GPUUtil:  1,
			SoloUs:   spec.SoloLatency(),
		})
	}
	return res, nil
}

// Render prints the utilization table.
func (r *Figure1bResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Features),
			fmt.Sprintf("%d", row.Warps),
			fmt.Sprintf("%.1f%%", row.SMUtil*100),
			fmt.Sprintf("%.1f%%", row.DRAMUtil*100),
			fmt.Sprintf("%.1f%%", row.GPUUtil*100),
			fmt.Sprintf("%.1f", row.SoloUs),
		}
	}
	return "Figure 1(b): NGram kernel resource utilization vs input size\n\n" +
		table([]string{"#features", "warps", "SM util", "DRAM bw", "GPU util", "solo us"}, rows)
}

// Figure1cRow is one point of the overlap-contention study.
type Figure1cRow struct {
	Features      int
	MLPSoloUs     float64
	MLPOverlapUs  float64
	NGramSoloUs   float64
	StretchFactor float64
}

// Figure1cResult shows MLP-forward latency when co-running with NGram
// kernels of growing size.
type Figure1cResult struct{ Rows []Figure1cRow }

// Figure1c reproduces the case study: overlapping MLP forward with an
// unmanaged NGram kernel stretches training once GPU resources run out.
//
//rap:deterministic
func Figure1c() (*Figure1cResult, error) {
	w, err := workloadFor(1, 4096)
	if err != nil {
		return nil, err
	}
	pl := dlrm.PlaceTables(w.Model.TableSizes, 1)
	stages := w.Model.IterationStages(0, pl)
	var mlp gpusim.Kernel
	for _, s := range stages {
		if s.Name == "top_fwd" {
			mlp = s.Kernel
		}
	}
	res := &Figure1cResult{}
	for _, features := range []int{0, 8, 16, 32, 64, 128} {
		row := Figure1cRow{Features: features, MLPSoloUs: mlp.SoloLatency()}
		if features == 0 {
			row.MLPOverlapUs = mlp.SoloLatency()
			row.StretchFactor = 1
			res.Rows = append(res.Rows, row)
			continue
		}
		ins := make([]string, features)
		for i := range ins {
			ins[i] = fmt.Sprintf("f%d", i)
		}
		spec := preproc.NewNGram("ngram", ins, "out", 3, 1<<20).Spec(preproc.Shape{Samples: 4096, AvgListLen: 1})
		sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 1, Policy: gpusim.FairShare})
		m := sim.AddKernel(0, mlp)
		sim.AddKernel(0, spec.Kernel())
		out, err := sim.Run()
		if err != nil {
			return nil, err
		}
		row.NGramSoloUs = spec.SoloLatency()
		row.MLPOverlapUs = out.OpByID(m).Latency()
		row.StretchFactor = row.MLPOverlapUs / row.MLPSoloUs
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the latency table.
func (r *Figure1cResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%d", row.Features),
			fmt.Sprintf("%.0f", row.MLPSoloUs),
			fmt.Sprintf("%.0f", row.MLPOverlapUs),
			fmt.Sprintf("%.2fx", row.StretchFactor),
		}
	}
	return "Figure 1(c): MLP forward latency when overlapped with NGram kernels\n\n" +
		table([]string{"ngram #features", "mlp solo us", "mlp overlapped us", "stretch"}, rows)
}
