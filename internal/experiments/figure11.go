package experiments

import (
	"fmt"

	"rap/internal/preproc"
	"rap/internal/rap"
	"rap/internal/trace"
)

// Figure11Setting is one curve of the fusion/scheduling study.
type Figure11Setting string

// The Figure 11 settings.
const (
	F11Baseline Figure11Setting = "Baseline"
	F11Fusion   Figure11Setting = "Horizontal Fusion"
	F11RAP      Figure11Setting = "Fusion + Scheduling (RAP)"
)

// Figure11Settings lists the curves in presentation order.
func Figure11Settings() []Figure11Setting {
	return []Figure11Setting{F11Baseline, F11Fusion, F11RAP}
}

// Figure11Point is one (setting, extra-NGram-count) latency sample.
type Figure11Point struct {
	Setting   Figure11Setting
	NGramOps  int
	LatencyUs float64
	// GPUUtil / SMUtil back Table 4 (profiled at this point).
	GPUUtil float64
	SMUtil  float64
}

// Figure11Result holds the latency curves and turning points.
type Figure11Result struct {
	GPUs   int
	Sweep  []int
	Points []Figure11Point
	// TurningPoint maps setting -> index into Sweep where latency first
	// exceeds the no-extra-work latency by >10% (-1 = never).
	TurningPoint map[Figure11Setting]int
}

// ngramWorkload returns the plan-1 workload with extra standalone NGram
// operations grafted onto the sparse-feature graphs (the training model
// is unchanged — the added ops are pure preprocessing load, as in the
// paper's setup "fixed the DLRM training while gradually increasing the
// workload of input preprocessing").
func ngramWorkload(extraNGrams, batch int) (*rap.Workload, error) {
	w, err := workloadFor(1, batch)
	if err != nil {
		return nil, err
	}
	// Light base: keep the dense graphs and the first lightBase sparse
	// chains so that, with no extra NGrams, every setting hides the
	// preprocessing completely and the turning points measure tolerance
	// to the added load alone.
	const lightBase = 8
	w.Plan.Graphs = w.Plan.Graphs[:w.Plan.NumDense+lightBase]
	for i := 0; i < extraNGrams; i++ {
		gi := w.Plan.NumDense + (i % lightBase)
		g := w.Plan.Graphs[gi]
		base := g.Ops[0].Output() // the FillNull output of the chain
		ng := preproc.NewNGram(
			fmt.Sprintf("%s/extra_ng%d", g.Name, i),
			[]string{base},
			fmt.Sprintf("%s.xng%d", base, i),
			3, 1<<20)
		g.Ops = append(g.Ops, ng)
		g.InvalidateDeps()
	}
	if err := w.Plan.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Figure11 sweeps the extra-NGram count for the three settings and
// reports the end-to-end latency curves with their turning points.
//
//rap:deterministic
func Figure11(sweep []int, gpus int) (*Figure11Result, error) {
	if len(sweep) == 0 {
		sweep = []int{0, 8, 16, 32, 64, 96, 128}
	}
	if gpus <= 0 {
		gpus = 4
	}
	res := &Figure11Result{GPUs: gpus, Sweep: sweep, TurningPoint: map[Figure11Setting]int{}}
	opts := map[Figure11Setting]rap.BuildOptions{
		F11Baseline: {Strategy: rap.MapDataParallel, NoFusion: true, NaiveSchedule: true, NoInterleave: true, PreprocPriority: 1},
		F11Fusion:   {Strategy: rap.MapDataParallel, NaiveSchedule: true, NoInterleave: true, PreprocPriority: 1},
		F11RAP:      {},
	}
	for _, setting := range Figure11Settings() {
		var curve []float64
		for _, k := range sweep {
			w, err := ngramWorkload(k, 4096)
			if err != nil {
				return nil, err
			}
			f := rap.New(w, cluster(gpus))
			p, err := f.BuildPlan(opts[setting])
			if err != nil {
				return nil, err
			}
			stats, err := f.Execute(p, Iterations)
			if err != nil {
				return nil, err
			}
			sum := trace.MeanSummary(stats.Result, gpus, 0)
			res.Points = append(res.Points, Figure11Point{
				Setting: setting, NGramOps: k,
				LatencyUs: stats.SteadyIterLatency,
				GPUUtil:   sum.GPUUtil,
				SMUtil:    sum.SMUtil,
			})
			curve = append(curve, stats.SteadyIterLatency)
		}
		res.TurningPoint[setting] = trace.TurningPoint(curve, 0.10)
	}
	return res, nil
}

// point returns the sample for (setting, k).
func (r *Figure11Result) point(s Figure11Setting, k int) (Figure11Point, bool) {
	for _, p := range r.Points {
		if p.Setting == s && p.NGramOps == k {
			return p, true
		}
	}
	return Figure11Point{}, false
}

// Render prints the latency curves with turning points marked.
func (r *Figure11Result) Render() string {
	header := []string{"extra ngrams"}
	for _, s := range Figure11Settings() {
		header = append(header, string(s))
	}
	var rows [][]string
	for _, k := range r.Sweep {
		row := []string{fmt.Sprintf("%d", k)}
		for _, s := range Figure11Settings() {
			if p, ok := r.point(s, k); ok {
				row = append(row, fmt.Sprintf("%.0f", p.LatencyUs))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	out := fmt.Sprintf("Figure 11: training latency (us) vs added NGram preprocessing (%d GPUs)\n\n", r.GPUs) +
		table(header, rows) + "\nTurning points (latency +10%): "
	for _, s := range Figure11Settings() {
		tp := r.TurningPoint[s]
		if tp < 0 {
			out += fmt.Sprintf("%s: none  ", s)
		} else {
			out += fmt.Sprintf("%s: %d ngrams  ", s, r.Sweep[tp])
		}
	}
	return out + "\n"
}

// Table4Result reports GPU/SM utilization at each setting's turning
// point.
type Table4Result struct {
	Rows map[Figure11Setting]struct{ GPUUtil, SMUtil float64 }
}

// Table4 derives the utilization-at-turning-point table from a Figure 11
// run (the paper profiles the same three settings at their respective
// latency turning points). Settings that never turn use the last sweep
// point.
//
//rap:deterministic
func Table4(f11 *Figure11Result) *Table4Result {
	res := &Table4Result{Rows: map[Figure11Setting]struct{ GPUUtil, SMUtil float64 }{}}
	for _, s := range Figure11Settings() {
		idx := f11.TurningPoint[s]
		if idx < 0 {
			idx = len(f11.Sweep) - 1
		}
		if p, ok := f11.point(s, f11.Sweep[idx]); ok {
			res.Rows[s] = struct{ GPUUtil, SMUtil float64 }{p.GPUUtil, p.SMUtil}
		}
	}
	return res
}

// Render prints the Table 4 layout.
func (r *Table4Result) Render() string {
	var rows [][]string
	for _, s := range Figure11Settings() {
		v := r.Rows[s]
		rows = append(rows, []string{string(s),
			fmt.Sprintf("%.1f%%", v.GPUUtil*100),
			fmt.Sprintf("%.1f%%", v.SMUtil*100)})
	}
	return "Table 4: GPU and SM utilization at the latency turning point\n\n" +
		table([]string{"Setting", "Avg. GPU Utilization", "Avg. SM Utilization"}, rows)
}
