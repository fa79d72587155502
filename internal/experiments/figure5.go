package experiments

import (
	"fmt"

	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/gbdt"
	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// Figure5Row is one (op, size) probe of the latency-based overhead
// abstraction study.
type Figure5Row struct {
	Op           string
	Warps        int
	StandaloneUs float64
	// OverlapUs is the co-run makespan with the embedding-lookup stage.
	OverlapUs float64
}

// Figure5Result backs both Figure 5(b) (standalone vs overlapping
// latency: all ops on one trend) and Figure 5(c) (#warps vs overlapping
// latency: curves misaligned per op).
type Figure5Result struct{ Rows []Figure5Row }

// Figure5 measures the correlation between standalone preprocessing
// latency and overlapping latency for NGram, SigridHash and Logit
// kernels of growing size co-run with an embedding-lookup stage (§5.1's
// validation experiment).
func Figure5() (*Figure5Result, error) {
	w, err := workloadFor(1, 4096)
	if err != nil {
		return nil, err
	}
	pl := dlrm.PlaceTables(w.Model.TableSizes, 4)
	var lookup gpusim.Kernel
	for _, s := range w.Model.IterationStages(0, pl) {
		if s.Name == "emb_lookup" {
			lookup = s.Kernel
		}
	}
	res := &Figure5Result{}
	for _, samples := range []int{2048, 4096, 8192, 16384, 32768} {
		shape := preproc.Shape{Samples: samples, AvgListLen: 3}
		specs := []preproc.KernelSpec{
			preproc.NewNGram("ngram", []string{"a", "b", "c"}, "o", 3, 1<<20).Spec(shape),
			preproc.NewSigridHash("sigridhash", "a", "o", 1<<20).Spec(shape),
			preproc.NewLogit("logit", "a", "o", 0).Spec(shape),
		}
		for _, spec := range specs {
			sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 1, Policy: gpusim.FairShare})
			sim.AddKernel(0, lookup)
			sim.AddKernel(0, spec.Kernel())
			out, err := sim.Run()
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Figure5Row{
				Op:           spec.Type.String(),
				Warps:        spec.Warps(),
				StandaloneUs: spec.SoloLatency(),
				OverlapUs:    out.Makespan,
			})
		}
	}
	return res, nil
}

// Render prints both views of the data.
func (r *Figure5Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Op,
			fmt.Sprintf("%d", row.Warps),
			fmt.Sprintf("%.1f", row.StandaloneUs),
			fmt.Sprintf("%.1f", row.OverlapUs),
			fmt.Sprintf("%.2f", row.OverlapUs/row.StandaloneUs),
		}
	}
	return "Figure 5(b)/(c): standalone vs overlapping latency (co-run with embedding lookup)\n" +
		"5(b): overlap latency tracks standalone latency consistently across ops.\n" +
		"5(c): at equal #warps, per-op overlap latencies diverge (warps are not a uniform cost metric).\n\n" +
		table([]string{"op", "warps", "standalone us", "overlap us", "ratio"}, rows)
}

// Table5Result is the latency-predictor accuracy per category.
type Table5Result struct {
	// Accuracy maps predictor category -> fraction within 10% (Table 5).
	Accuracy map[string]float64
	Samples  int
}

// Table5 trains the GBDT latency predictor on ~11K profiled kernels
// (9:1 split) and reports accuracy@10% per operator category.
//
//rap:deterministic
func Table5() (*Table5Result, error) {
	ds := costmodel.CollectTrainingData(11000, Seed)
	train, eval := ds.Split(0.9, Seed)
	pred, err := costmodel.TrainPredictor(train, gbdt.Config{NumTrees: 150, MaxDepth: 6, LearningRate: 0.1})
	if err != nil {
		return nil, err
	}
	return &Table5Result{Accuracy: pred.Accuracy(eval, 0.10), Samples: ds.Size()}, nil
}

// Render prints the Table 5 layout.
func (r *Table5Result) Render() string {
	order := []string{"1D Ops", "FirstX", "Ngram", "Onehot", "Bucketize"}
	rows := make([][]string, 0, len(order))
	for _, cat := range order {
		rows = append(rows, []string{cat, fmt.Sprintf("%.1f", r.Accuracy[cat]*100)})
	}
	return fmt.Sprintf("Table 5: ML-based latency predictor accuracy (%d kernels, 9:1 split, within 10%%)\n\n",
		r.Samples) + table([]string{"Operators", "Acc. (%)"}, rows)
}
