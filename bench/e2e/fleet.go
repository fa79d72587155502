package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"rap/internal/baselines"
	"rap/internal/cluster"
	"rap/internal/gpusim"
	"rap/internal/rap"
	"rap/internal/topo"
)

// fleetMenu is a copy of the cluster generator's six-shape palette. The
// benchmark draws its own traces so a change to cluster.GenerateJobs
// cannot change the workload.
var fleetMenu = []cluster.JobShape{
	{Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 2048, GPUs: 2, Iterations: 40},
	{Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 4096, GPUs: 4, Iterations: 60},
	{Dataset: rap.Terabyte, PlanIdx: 1, PerGPUBatch: 4096, GPUs: 4, Iterations: 50},
	{Dataset: rap.Terabyte, PlanIdx: 1, PerGPUBatch: 4096, GPUs: 8, Iterations: 80},
	{Dataset: rap.Terabyte, PlanIdx: 2, PerGPUBatch: 2048, GPUs: 8, Iterations: 60},
	{Dataset: rap.Terabyte, PlanIdx: 3, PerGPUBatch: 4096, GPUs: 16, Iterations: 100},
}

// fleetConfig sizes the fleet workload: nodes of eight GPUs each behind
// a 100 GB/s fabric oversubscribed four times.
type fleetConfig struct {
	nodes int
	menu  []cluster.JobShape
	// perShape jobs of every menu shape make up one trace, in a random
	// order: stratifying the draw keeps the traces' host costs alike.
	perShape int
	// traces is the size of the trace pool.
	traces int
}

const (
	gpusPerNode = 8
	fabricGBs   = 100.0
	oversub     = 4.0
)

// poolSeed draws the fleet's trace pool. The pool is part of the
// workload's definition and the same for every run; the run's seed
// orders it, as it orders the planning workloads' shift set, so the
// simulated metrics compare exactly across seeds.
const poolSeed = 1

// meanGapUs is the mean Poisson inter-arrival gap.
const meanGapUs = 2000.0

// simIterations is cluster.Config's default per-job simulation length.
const simIterations = 8

var policies = []cluster.Policy{cluster.Pack{}, cluster.FirstFit{}}

type fleet struct {
	cfg    fleetConfig
	topo   *topo.Topology
	traces [][]cluster.Job
	order  []int // job i simulates traces[order[i%len(order)]]
	ideal  map[cluster.JobShape]idealRun

	// pack and firstFit hold each trace's first reports.
	pack, firstFit []*cluster.Report
}

// idealRun is one shape's Ideal (no preprocessing) simulation.
type idealRun struct {
	makespanUs, steadyUs float64
}

func newFleet(cfg fleetConfig, seed int64) (*fleet, error) {
	t := topo.Uniform(cfg.nodes, gpusPerNode)
	t.FabricGBs = fabricGBs
	t.Oversub = oversub
	if err := t.Validate(); err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, topo: t, ideal: map[cluster.JobShape]idealRun{},
		order:    rand.New(rand.NewSource(seed)).Perm(cfg.traces),
		pack:     make([]*cluster.Report, cfg.traces),
		firstFit: make([]*cluster.Report, cfg.traces),
	}
	rng := rand.New(rand.NewSource(poolSeed))
	n := cfg.perShape * len(cfg.menu)
	for k := 0; k < cfg.traces; k++ {
		perm := rng.Perm(n)
		jobs := make([]cluster.Job, n)
		at := 0.0
		for i := range jobs {
			at += rng.ExpFloat64() * meanGapUs
			sh := cfg.menu[perm[i]%len(cfg.menu)]
			sh.Iterations += rng.Intn(sh.Iterations)
			jobs[i] = cluster.Job{ID: i, ArrivalUs: at, Shape: sh}
		}
		f.traces = append(f.traces, jobs)
	}
	for _, sh := range cfg.menu {
		w, err := rap.NewWorkload(sh.Dataset, sh.PlanIdx, sh.PerGPUBatch, 1)
		if err != nil {
			return nil, err
		}
		res, err := baselines.Run(baselines.SystemIdeal, w,
			gpusim.ClusterConfig{NumGPUs: sh.GPUs, HostCores: 48}, simIterations)
		if err != nil {
			return nil, err
		}
		f.ideal[shapeKey(sh)] = idealRun{res.Stats.Result.Makespan, res.IterLatency}
	}
	return f, nil
}

func shapeKey(sh cluster.JobShape) cluster.JobShape {
	sh.Iterations = 0
	return sh
}

func (f *fleet) cycle() int { return len(f.traces) }

// warmup fills a fresh Simulator's plan cache for a trace: one small
// sweep.
func (f *fleet) warmup(tl *tally) {
	sim, err := cluster.New(cluster.Config{Topo: f.topo, Policy: cluster.Pack{}})
	if !tl.call("warm-up cluster.New", err) {
		return
	}
	_, err = sim.Simulate(fillTrace(f.traces[0]))
	tl.call("warm-up plan fill", err)
}

func (f *fleet) inputDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "fleet %dx%d fabric=%x oversub=%x order=%v\n", f.cfg.nodes, gpusPerNode,
		math.Float64bits(fabricGBs), math.Float64bits(oversub), f.order)
	for _, jobs := range f.traces {
		fmt.Fprintf(h, "trace %d\n", len(jobs))
		for _, j := range jobs {
			fmt.Fprintf(h, "%d %x %+v\n", j.ID, math.Float64bits(j.ArrivalUs), j.Shape)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fillTrace is one single-iteration job per distinct shape of jobs, all
// arriving at time 0: simulating it makes a fresh Simulator build (and
// cache) every plan the trace needs, so the timed Simulate that follows
// reads plans instead of building them.
func fillTrace(jobs []cluster.Job) []cluster.Job {
	var fill []cluster.Job
	seen := map[cluster.JobShape]bool{}
	for _, j := range jobs {
		k := shapeKey(j.Shape)
		if seen[k] {
			continue
		}
		seen[k] = true
		sh := j.Shape
		sh.Iterations = 1
		fill = append(fill, cluster.Job{ID: len(fill), Shape: sh})
	}
	return fill
}

// job runs sweep i: one fresh Simulator per placement policy, each
// filling its plan cache and then simulating the sweep's trace.
func (f *fleet) job(i int, tr *tracer, tl *tally) (jobTimes, bool) {
	k := f.order[i%len(f.order)]
	jobs := f.traces[k]
	fill := fillTrace(jobs)
	var jt jobTimes
	reports := make([]*cluster.Report, len(policies))
	for pi, pol := range policies {
		t0 := time.Now()
		sim, err := cluster.New(cluster.Config{Topo: f.topo, Policy: pol})
		if !tl.call("cluster.New", err) {
			return jobTimes{}, false
		}
		s := tr.begin("cluster.plan_fill")
		_, err = sim.Simulate(fill)
		tr.end(s)
		if !tl.call("plan fill", err) {
			return jobTimes{}, false
		}
		t1 := time.Now()
		s = tr.begin("cluster.simulate")
		rep, err := sim.Simulate(jobs)
		tr.end(s)
		if !tl.call("Simulate "+pol.Name(), err) {
			return jobTimes{}, false
		}
		t2 := time.Now()
		jt.plan += t1.Sub(t0)
		jt.sim += t2.Sub(t1)
		jt.job += t2.Sub(t0)
		tl.check(checkReport(rep, jobs))
		reports[pi] = rep
	}
	if f.pack[k] == nil {
		f.pack[k], f.firstFit[k] = reports[0], reports[1]
	}
	if tr != nil {
		split := 0
		for _, jr := range reports[0].Results {
			if jr.Nodes > 1 {
				split++
			}
		}
		tr.add("cluster.split_jobs", float64(split))
		tr.add("cluster.jobs", float64(len(jobs)))
		tr.add("cluster.shapes", float64(len(fill)))
	}
	return jt, true
}

// checkReport verifies that a report accounts for every job of the
// trace exactly once and that its utilization lies in (0, 1].
func checkReport(rep *cluster.Report, jobs []cluster.Job) error {
	if rep.Jobs != len(jobs) || len(rep.Results) != len(jobs) {
		return fmt.Errorf("%s report has %d jobs (%d results) for a %d-job trace", rep.Policy, rep.Jobs, len(rep.Results), len(jobs))
	}
	for k, jr := range rep.Results {
		if jr.ID != jobs[k].ID {
			return fmt.Errorf("%s report result %d is job %d, want %d", rep.Policy, k, jr.ID, jobs[k].ID)
		}
		if !(jr.EndUs > jr.StartUs) || jr.StartUs < jr.ArrivalUs {
			return fmt.Errorf("%s report job %d runs [%g, %g] after arriving at %g", rep.Policy, jr.ID, jr.StartUs, jr.EndUs, jr.ArrivalUs)
		}
	}
	return expect(rep.GPUUtil > 0 && rep.GPUUtil <= 1, "%s report utilization %g outside (0, 1]", rep.Policy, rep.GPUUtil)
}

// rerunFirst repeats sweep 0's pack simulation on a fresh Simulator
// without the plan fill; its digest must match the timed run's.
func (f *fleet) rerunFirst(tl *tally) {
	sim, err := cluster.New(cluster.Config{Topo: f.topo, Policy: cluster.Pack{}})
	if !tl.call("rerun cluster.New", err) {
		return
	}
	k := f.order[0]
	rep, err := sim.Simulate(f.traces[k])
	if !tl.call("rerun Simulate", err) {
		return
	}
	got, want := rep.Digest(), f.pack[k].Digest()
	tl.check(expect(got == want, "rerun of sweep 0 (pack) digests %s, first run %s", got, want))
}

// simulated returns, over the trace pool under the pack policy, the fleet's training throughput (all samples trained over the
// summed makespans) and the mean over jobs of how far a job's run time
// lands above its shape's Ideal run time.
func (f *fleet) simulated() (samplesPerS, gapPct float64) {
	samples, makespanUs, gapSum, jobs := 0.0, 0.0, 0.0, 0
	for k, rep := range f.pack {
		makespanUs += rep.MakespanUs
		for n, jr := range rep.Results {
			sh := f.traces[k][n].Shape
			samples += float64(sh.Iterations) * float64(sh.PerGPUBatch) * float64(sh.GPUs)
			id := f.ideal[shapeKey(sh)]
			idealUs := id.makespanUs + float64(sh.Iterations-simIterations)*id.steadyUs
			gapSum += 100 * (1 - idealUs/(jr.EndUs-jr.StartUs))
			jobs++
		}
	}
	return samples / (makespanUs * 1e-6), gapSum / float64(jobs)
}

// policyStats returns the pack policy's mean JCT and first-fit's mean
// JCT over pack's, over the trace pool.
func (f *fleet) policyStats() (packJCTms, gainX float64) {
	packSum, ffSum := 0.0, 0.0
	for k := range f.pack {
		packSum += f.pack[k].AvgJCTUs
		ffSum += f.firstFit[k].AvgJCTUs
	}
	return packSum / float64(len(f.pack)) / 1e3, ffSum / packSum
}
