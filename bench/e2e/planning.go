package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"rap/internal/baselines"
	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/fusion"
	"rap/internal/gpusim"
	"rap/internal/mapping"
	"rap/internal/preproc"
	"rap/internal/rap"
	"rap/internal/sched"
	"rap/internal/trace"
)

// planningConfig is one single-job workload: a Figure 9 configuration
// that every job plans cold, replans for a shifted input distribution,
// simulates, compares against Ideal and renders as a Chrome trace —
// what `raptrain -trace` does for one configuration.
type planningConfig struct {
	dataset rap.Dataset
	plan    int
	gpus    int
	batch   int
}

// iterations is the simulated training length of every Execute and
// Ideal run (-quick: quickIterations).
const (
	iterations      = 12
	quickIterations = 4
)

// shiftLens returns the §10 shifted list lengths {1.5, 1.75, …, 6.0},
// leaving out the plans' base value 3.0 so every replan is a real
// rebuild rather than a plan-cache hit, in a seeded order. Every seed
// runs the same set, so the simulated metrics do not depend on it.
func shiftLens(seed int64, quick bool) []float64 {
	var ls []float64
	for k := 0; k <= 18; k++ {
		if k != 6 { // 1.5 + 0.25·6 = 3.0, the base
			ls = append(ls, 1.5+0.25*float64(k))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
	if quick {
		ls = ls[:1]
	}
	return ls
}

type planning struct {
	cfg     planningConfig
	w       *rap.Workload
	cluster gpusim.ClusterConfig
	opts    rap.BuildOptions
	iters   int
	shifts  []float64

	// rapTput and idealTput hold, per shift index, the simulated
	// throughput of the first job that ran that shift.
	rapTput, idealTput []float64
	firstDigest        string
}

func newPlanning(cfg planningConfig, seed int64, quick bool) (*planning, error) {
	w, err := rap.NewWorkload(cfg.dataset, cfg.plan, cfg.batch, 1)
	if err != nil {
		return nil, err
	}
	p := &planning{
		cfg:    cfg,
		w:      w,
		iters:  iterations,
		shifts: shiftLens(seed, quick),
	}
	if quick {
		// Two GPUs, a small MILP budget and a short simulation keep
		// -quick runs short under -race.
		p.cfg.gpus, p.iters, p.opts.FusionMaxNodes = 2, quickIterations, 2000
	}
	p.cluster = gpusim.ClusterConfig{NumGPUs: p.cfg.gpus, HostCores: 48}
	p.rapTput = make([]float64, len(p.shifts))
	p.idealTput = make([]float64, len(p.shifts))
	return p, nil
}

func (p *planning) cycle() int { return len(p.shifts) }

// warmup runs job 0 untimed.
func (p *planning) warmup(tl *tally) { p.job(0, nil, tl) }

func (p *planning) inputDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "planning %s plan=%d gpus=%d batch=%d iters=%d maxnodes=%d\n",
		p.cfg.dataset, p.cfg.plan, p.cfg.gpus, p.cfg.batch, p.iters, p.opts.FusionMaxNodes)
	for _, l := range p.shifts {
		fmt.Fprintf(h, "shift %x\n", math.Float64bits(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// job runs job i: plan, replan, simulate, Ideal, trace. Only the calls
// are timed; checks and the traced replay run after the clock stops.
func (p *planning) job(i int, tr *tracer, tl *tally) (jobTimes, bool) {
	shift := p.shifts[i%len(p.shifts)]

	t0 := time.Now()
	s := tr.begin("rap.build")
	f := rap.New(p.w, p.cluster)
	base, err := f.BuildPlan(p.opts)
	tr.end(s)
	if !tl.call("BuildPlan", err) {
		return jobTimes{}, false
	}
	s = tr.begin("rap.replan")
	shifted, err := f.AdaptToShift(shift, p.opts)
	tr.end(s)
	if !tl.call("AdaptToShift", err) {
		return jobTimes{}, false
	}
	t1 := time.Now()
	s = tr.beginAlloc("sched.pipeline")
	stats, err := f.Execute(shifted, p.iters)
	tr.end(s)
	if !tl.call("Execute", err) {
		return jobTimes{}, false
	}
	s = tr.begin("baselines.ideal")
	ideal, err := baselines.Run(baselines.SystemIdeal, f.W, p.cluster, p.iters)
	tr.end(s)
	if !tl.call("Ideal run", err) {
		return jobTimes{}, false
	}
	t2 := time.Now()
	s = tr.begin("trace.chrome")
	var cw byteCounter
	err = trace.WriteChromeTrace(&cw, stats.Result, p.cfg.gpus)
	tr.end(s)
	if !tl.call("WriteChromeTrace", err) {
		return jobTimes{}, false
	}
	t3 := time.Now()

	tl.check(checkCoverage(base, p.w))
	tl.check(checkCoverage(shifted, f.W))
	tl.check(checkThroughput(stats.Throughput, ideal.Throughput))
	if i < len(p.shifts) {
		p.rapTput[i], p.idealTput[i] = stats.Throughput, ideal.Throughput
	}
	if i == 0 {
		p.firstDigest = gpusim.ResultDigest(stats.Result)
	}

	if tr != nil {
		tr.add("gpusim.events", float64(stats.Result.Events))
		tr.add("gpusim.ops", float64(len(stats.Result.Ops)))
		tr.add("trace.chrome_bytes", float64(cw))
		for g := range shifted.Fusions {
			fp, sc := shifted.Fusions[g], shifted.Schedules[g]
			tr.add("fusion.ops", float64(fp.NumOps))
			tr.add("fusion.kernels", float64(fp.NumKernels))
			tr.add("fusion.plans", 1)
			if fp.Optimal {
				tr.add("fusion.optimal", 1)
			}
			tr.add("sched.overflow_kernels", float64(len(sc.Overflow)))
			tr.add("sched.kernels", float64(sc.TotalKernels()))
		}
		p.traceReplay(tr, tl, base, shifted, f.W)
	}
	return jobTimes{job: t3.Sub(t0), plan: t1.Sub(t0), sim: t2.Sub(t1)}, true
}

// traceReplay re-runs the cold build and the shift replan stage by
// stage through the layers' public entry points, with its own probe and
// solve caches kept across the two, and checks that it reproduces
// BuildPlan's predicted exposure bit for bit.
func (p *planning) traceReplay(tr *tracer, tl *tally, base, shifted *rap.ExecPlan, shiftedW *rap.Workload) {
	probes := costmodel.NewProbeCache()
	solves := fusion.NewSolveCache()
	for _, c := range []struct {
		w    *rap.Workload
		plan *rap.ExecPlan
	}{{p.w, base}, {shiftedW, shifted}} {
		exposed, err := p.replay(tr, c.w, probes, solves)
		if !tl.call("replay", err) {
			continue
		}
		tr.add("rap.replays", 1)
		match := sameBits(exposed, c.plan.PredictedExposedUs)
		if match {
			tr.add("rap.replay_matches", 1)
		}
		tl.check(expect(match, "replayed PredictedExposedUs %v differ from BuildPlan's %v", exposed, c.plan.PredictedExposedUs))
	}
	ph, pm := probes.Stats()
	tr.add("costmodel.probe_hits", float64(ph))
	tr.add("costmodel.probe_lookups", float64(ph+pm))
	sh, sm := solves.Stats()
	tr.add("fusion.memo_hits", float64(sh))
	tr.add("fusion.memo_lookups", float64(sh+sm))
	tr.add("fusion.milp_solves", float64(sm))
}

// replay is rap's buildPlan for the default RAP options, one layer call
// at a time and sequential across GPUs, with a span around each call.
func (p *planning) replay(tr *tracer, w *rap.Workload, probes *costmodel.ProbeCache, solves *fusion.SolveCache) ([]float64, error) {
	root := tr.begin("rap.replay")
	defer tr.end(root)
	cl := p.cluster.WithDefaults()
	n := cl.NumGPUs
	pl := dlrm.PlaceTables(w.Model.TableSizes, n)
	caps := make([][]costmodel.StageCapacity, n)
	capTotals := make([]float64, n)
	for g := 0; g < n; g++ {
		s := tr.beginAlloc("costmodel.probe")
		c, err := costmodel.EstimateCapacitiesCached(w.Model, pl, g, cl, probes)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		caps[g], capTotals[g] = c, costmodel.TotalCapacity(c)
	}

	pred := costmodel.AnalyticPredictor()
	var costErr error
	cost := func(gpu int, items []mapping.Assign, commBytes float64) float64 {
		s := tr.begin("fusion.greedy")
		fp, err := fusion.PlanFusionScaled(scaled(items), fusion.Options{GreedyOnly: true})
		tr.end(s)
		if err != nil {
			costErr = err
			return 1e18
		}
		sc, err := p.coRun(tr, fp, pred, caps[gpu])
		if err != nil {
			costErr = err
			return 1e18
		}
		return sc.PredictedExposed + commBytes*rap.ScatterInefficiency/(cl.LinkGBs*1e3)
	}
	s := tr.beginAlloc("mapping.search")
	mapped, err := mapping.RAPSearch(mapping.Config{
		Plan:           w.Plan,
		Placement:      pl,
		PerGPUBatch:    w.Model.BatchSize,
		LinkGBs:        cl.LinkGBs,
		CapacityPerGPU: capTotals,
		Cost:           cost,
	})
	tr.end(s)
	if costErr != nil {
		return nil, costErr
	}
	if err != nil {
		return nil, err
	}
	tr.add("mapping.cost_evals", float64(mapped.CostEvals))
	tr.add("mapping.cost_hits", float64(mapped.CostCacheHits))
	tr.add("mapping.moves", float64(mapped.Moves))

	exposed := make([]float64, n)
	for g := 0; g < n; g++ {
		lower := tr.begin("rap.lower")
		s := tr.beginAlloc("fusion.milp")
		fp, err := fusion.PlanFusionScaled(scaled(mapped.PerGPU[g]), fusion.Options{
			MaxNodes:   p.opts.FusionMaxNodes,
			Workers:    1,
			SolveCache: solves,
		})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		sc, err := p.coRun(tr, fp, pred, caps[g])
		tr.end(lower)
		if err != nil {
			return nil, err
		}
		exposed[g] = sc.PredictedExposed
	}
	return exposed, nil
}

func (p *planning) coRun(tr *tracer, fp *fusion.Plan, pred *costmodel.Predictor, caps []costmodel.StageCapacity) (*sched.Schedule, error) {
	cm, err := costmodel.NewCostModel(pred, caps)
	if err != nil {
		return nil, err
	}
	s := tr.begin("sched.corun")
	defer tr.end(s)
	return sched.CoRunSchedule(fp, cm, sched.Options{})
}

func scaled(items []mapping.Assign) []fusion.ScaledGraph {
	sg := make([]fusion.ScaledGraph, len(items))
	for i, a := range items {
		sg[i] = fusion.ScaledGraph{Graph: a.Graph, Shape: a.Shape}
	}
	return sg
}

// rerunFirst repeats job 0's simulation from a fresh framework; its
// result digest must match the timed run's.
func (p *planning) rerunFirst(tl *tally) {
	f := rap.New(p.w, p.cluster)
	if _, err := f.BuildPlan(p.opts); !tl.call("rerun BuildPlan", err) {
		return
	}
	shifted, err := f.AdaptToShift(p.shifts[0], p.opts)
	if !tl.call("rerun AdaptToShift", err) {
		return
	}
	stats, err := f.Execute(shifted, p.iters)
	if !tl.call("rerun Execute", err) {
		return
	}
	got := gpusim.ResultDigest(stats.Result)
	tl.check(expect(got == p.firstDigest, "rerun of job 0 digests %s, first run %s", got, p.firstDigest))
}

// simulated returns the geometric-mean RAP throughput and the mean gap
// to Ideal over the shift set, accumulated in list-length order so the
// result is bit-identical whatever order the seed ran the shifts in.
func (p *planning) simulated() (samplesPerS, gapPct float64) {
	idx := make([]int, len(p.shifts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.shifts[idx[a]] < p.shifts[idx[b]] })
	logSum, gapSum := 0.0, 0.0
	for _, i := range idx {
		logSum += math.Log(p.rapTput[i])
		gapSum += 100 * (1 - p.rapTput[i]/p.idealTput[i])
	}
	n := float64(len(idx))
	return math.Exp(logSum / n), gapSum / n
}

// checkCoverage verifies that a plan's fusion plans cover every
// operator of the preprocessing plan exactly once per assignment: each
// GPU's fused kernels hold exactly the ops of the graphs mapped to it,
// every op appears somewhere, and each graph's sample shares add up to
// the global batch.
func checkCoverage(p *rap.ExecPlan, w *rap.Workload) error {
	n := p.Cluster.NumGPUs
	samples := map[*preproc.Graph]int{}
	seen := map[string]bool{}
	for g := 0; g < n; g++ {
		want := map[string]int{}
		for _, a := range p.Mapping.PerGPU[g] {
			samples[a.Graph] += a.Shape.Samples
			for _, op := range a.Graph.Ops {
				want[op.ID()]++
			}
		}
		got := map[string]int{}
		for _, st := range p.Fusions[g].Steps {
			for _, ids := range st.OpIDs {
				for _, id := range ids {
					got[id]++
					seen[id] = true
				}
			}
		}
		if len(got) != len(want) {
			return fmt.Errorf("gpu %d fuses %d distinct ops, mapping assigns %d", g, len(got), len(want))
		}
		for id, k := range want {
			if got[id] != k {
				return fmt.Errorf("gpu %d fuses op %s %d times, mapping assigns it %d times", g, id, got[id], k)
			}
		}
	}
	if len(seen) != w.Plan.NumOps() {
		return fmt.Errorf("fusion plans cover %d ops, plan has %d", len(seen), w.Plan.NumOps())
	}
	global := w.Model.BatchSize * n
	for _, gr := range w.Plan.Graphs {
		if samples[gr] != global {
			return fmt.Errorf("graph %s is mapped for %d samples, global batch is %d", gr.Name, samples[gr], global)
		}
	}
	return nil
}

func checkThroughput(rapTput, idealTput float64) error {
	return expect(rapTput > 0 && rapTput <= idealTput,
		"RAP throughput %g outside (0, Ideal %g]", rapTput, idealTput)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(b []byte) (int, error) {
	*c += byteCounter(len(b))
	return len(b), nil
}
