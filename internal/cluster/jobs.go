package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"rap/internal/rap"
)

// JobShape is the workload profile of one training job: which DLRM
// configuration it trains, at what per-GPU batch size, on how many
// GPUs, for how many iterations. Shapes are drawn from a fixed menu of
// paper workloads so identical shapes share one cached RAP plan.
type JobShape struct {
	Dataset     rap.Dataset
	PlanIdx     int
	PerGPUBatch int
	GPUs        int
	Iterations  int
}

// Job is one tenant submission: a shape plus its arrival time.
type Job struct {
	ID        int
	ArrivalUs float64 //rap:unit us
	Shape     JobShape
}

// shapeMenu is the generator's palette: the paper's four DLRM
// configurations at the GPU counts and batch sizes the single-job
// experiments sweep. Iterations here are the base count; the generator
// jitters them per job.
var shapeMenu = []JobShape{
	{Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 2048, GPUs: 2, Iterations: 40},
	{Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 4096, GPUs: 4, Iterations: 60},
	{Dataset: rap.Terabyte, PlanIdx: 1, PerGPUBatch: 4096, GPUs: 4, Iterations: 50},
	{Dataset: rap.Terabyte, PlanIdx: 1, PerGPUBatch: 4096, GPUs: 8, Iterations: 80},
	{Dataset: rap.Terabyte, PlanIdx: 2, PerGPUBatch: 2048, GPUs: 8, Iterations: 60},
	{Dataset: rap.Terabyte, PlanIdx: 3, PerGPUBatch: 4096, GPUs: 16, Iterations: 100},
}

// GenConfig parameterizes the deterministic job-arrival generator.
type GenConfig struct {
	// Seed drives every random draw; the same (Seed, NumJobs,
	// MeanGapUs, MaxGPUs) always yields the identical job list.
	Seed    int64
	NumJobs int
	// MeanGapUs is the mean of the exponential inter-arrival gap
	// (default 2000 µs — a busy fleet).
	MeanGapUs float64 //rap:unit us
	// MaxGPUs drops menu shapes larger than this from the draw (0
	// keeps the full menu).
	MaxGPUs int
}

// GenerateJobs builds a seeded deterministic job trace: shapes drawn
// uniformly from the menu, Poisson arrivals (exponential gaps), and a
// per-job jitter on the iteration count. All randomness comes from
// rand.New(rand.NewSource(seed)) — never the global source.
//
//rap:deterministic
func GenerateJobs(cfg GenConfig) ([]Job, error) {
	if cfg.NumJobs < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 job, got %d", cfg.NumJobs)
	}
	if cfg.MeanGapUs < 0 || math.IsNaN(cfg.MeanGapUs) || math.IsInf(cfg.MeanGapUs, 0) {
		return nil, fmt.Errorf("cluster: mean arrival gap %g must be positive and finite", cfg.MeanGapUs)
	}
	if !(cfg.MeanGapUs > 0) { // zero (incl. -0) takes the default
		cfg.MeanGapUs = 2000
	}
	menu := shapeMenu
	if cfg.MaxGPUs > 0 {
		menu = nil
		for _, s := range shapeMenu {
			if s.GPUs <= cfg.MaxGPUs {
				menu = append(menu, s)
			}
		}
		if len(menu) == 0 {
			return nil, fmt.Errorf("cluster: no menu shape fits MaxGPUs=%d (smallest is %d)",
				cfg.MaxGPUs, shapeMenu[0].GPUs)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]Job, cfg.NumJobs)
	t := 0.0
	for i := range jobs {
		t += rng.ExpFloat64() * cfg.MeanGapUs
		sh := menu[rng.Intn(len(menu))]
		sh.Iterations += rng.Intn(sh.Iterations)
		jobs[i] = Job{ID: i, ArrivalUs: t, Shape: sh}
	}
	return jobs, nil
}
