package experiments

import (
	"fmt"
	"math"

	"rap/internal/dlrm"
	"rap/internal/rap"
	"rap/internal/sched"
)

// Figure12Row is one mapping strategy's outcome on the skewed workload.
type Figure12Row struct {
	Strategy rap.MappingStrategy
	// ExposedUs is the per-iteration latency beyond the preprocessing-
	// free Ideal (the exposed preprocessing + communication latency).
	ExposedUs float64
	// CommUs is the per-iteration input-communication time of the
	// busiest GPU.
	CommUs float64
	// Imbalance is max/mean preprocessing work across GPUs.
	Imbalance float64
	// Moves is the number of rebalancing moves (RAP only).
	Moves int
}

// Figure12Result compares DP / DL / RAP mapping on the skewed plan.
type Figure12Result struct {
	GPUs int
	Rows []Figure12Row
}

// Figure12 reproduces the mapping-adaptability study (§8.4): on a skewed
// preprocessing plan, batch-parallel mapping pays input communication,
// data-locality mapping suffers imbalance, and RAP's joint search does
// neither.
//
//rap:deterministic
func Figure12(gpus int) (*Figure12Result, error) {
	if gpus <= 0 {
		gpus = 4
	}
	w, err := rap.SkewedWorkload(8, 4096, Seed)
	if err != nil {
		return nil, err
	}
	// Ideal reference (no preprocessing).
	pl := dlrm.PlaceTables(w.Model.TableSizes, gpus)
	ideal, err := sched.BuildAndRun(cluster(gpus), w.Model, pl, make([]sched.GPUWork, gpus), sched.PipelineOptions{Iterations: Iterations})
	if err != nil {
		return nil, err
	}

	res := &Figure12Result{GPUs: gpus}
	link := cluster(gpus).WithDefaults().LinkGBs
	for _, strategy := range []rap.MappingStrategy{rap.MapDataParallel, rap.MapDataLocality, rap.MapRAP} {
		f := rap.New(w, cluster(gpus))
		p, err := f.BuildPlan(rap.BuildOptions{Strategy: strategy})
		if err != nil {
			return nil, err
		}
		stats, err := f.Execute(p, Iterations)
		if err != nil {
			return nil, err
		}
		maxComm := 0.0
		for _, b := range p.Mapping.CommBytes {
			if us := b * rap.ScatterInefficiency / (link * 1e3); us > maxComm {
				maxComm = us
			}
		}
		exposed := stats.SteadyIterLatency - ideal.SteadyIterLatency
		if exposed < 0 {
			exposed = 0
		}
		res.Rows = append(res.Rows, Figure12Row{
			Strategy:  strategy,
			ExposedUs: exposed,
			CommUs:    maxComm,
			Imbalance: p.Mapping.Imbalance(),
			Moves:     p.Mapping.Moves,
		})
	}
	return res, nil
}

// exposed returns the given strategy's exposed latency (0 when absent).
//
//rap:unit return us
func (r *Figure12Result) exposed(s rap.MappingStrategy) float64 {
	for _, row := range r.Rows {
		if row.Strategy == s {
			return row.ExposedUs
		}
	}
	return 0
}

// Reduction returns RAP's exposed-latency reduction factor vs the given
// strategy (the paper reports 4.3× vs DP and 4.0× vs DL). When RAP
// hides everything the factor is unbounded: Reduction returns +Inf, or
// 1 when the other strategy hides everything too.
func (r *Figure12Result) Reduction(vs rap.MappingStrategy) float64 {
	rapExp, other := r.exposed(rap.MapRAP), r.exposed(vs)
	if rapExp <= 0 {
		if other <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return other / rapExp
}

// Render prints the per-strategy comparison.
func (r *Figure12Result) Render() string {
	name := map[rap.MappingStrategy]string{
		rap.MapDataParallel: "Data-parallel (DP)",
		rap.MapDataLocality: "Data-locality (DL)",
		rap.MapRAP:          "RAP",
	}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			name[row.Strategy],
			fmt.Sprintf("%.0f", row.ExposedUs),
			fmt.Sprintf("%.0f", row.CommUs),
			fmt.Sprintf("%.2f", row.Imbalance),
			fmt.Sprintf("%d", row.Moves),
		})
	}
	return fmt.Sprintf("Figure 12: mapping strategies on a skewed preprocessing plan (%d GPUs)\n\n", r.GPUs) +
		table([]string{"mapping", "exposed us/iter", "max comm us", "work imbalance", "moves"}, rows) +
		r.summary()
}

// summary is Render's closing line: the reduction factors, or, when RAP
// hides everything and no factor is finite, the other exposures in µs.
func (r *Figure12Result) summary() string {
	if r.exposed(rap.MapRAP) <= 0 {
		return fmt.Sprintf("\nRAP hides all exposed latency; DP exposes %.0f us/iter and DL %.0f us/iter.\n",
			r.exposed(rap.MapDataParallel), r.exposed(rap.MapDataLocality))
	}
	return fmt.Sprintf("\nRAP reduces exposed latency by %.1fx vs DP and %.1fx vs DL.\n",
		r.Reduction(rap.MapDataParallel), r.Reduction(rap.MapDataLocality))
}
