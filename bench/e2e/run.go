package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"rap/internal/rap"
)

// bench is one workload's jobs. Job i must be a pure function of the
// seed and i; the harness owns the clock, the loop and the tracer.
type bench interface {
	inputDigest() string
	// cycle is how many consecutive jobs cover the workload's inputs
	// once. A run measures at least one cycle, which the simulated
	// metrics need; a traced run alternates traced and untraced cycles.
	cycle() int
	warmup(tl *tally)
	job(i int, tr *tracer, tl *tally) (jobTimes, bool)
	rerunFirst(tl *tally)
	simulated() (samplesPerS, gapPct float64)
}

// jobTimes is the host time of one job and of its planning and
// simulation phases.
type jobTimes struct {
	job, plan, sim time.Duration
}

// workloads maps each name in BENCHMARK.json to its constructor.
var workloads = map[string]func(seed int64, quick bool) (bench, error){
	"light": planningWorkload(planningConfig{dataset: rap.Terabyte, plan: 1, gpus: 8, batch: 4096}),
	"dense": planningWorkload(planningConfig{dataset: rap.Terabyte, plan: 2, gpus: 4, batch: 4096}),
	"wide":  planningWorkload(planningConfig{dataset: rap.Terabyte, plan: 3, gpus: 4, batch: 4096}),
	"fleet": func(seed int64, quick bool) (bench, error) {
		cfg := fleetConfig{nodes: 16, menu: fleetMenu, perShape: 4, traces: 4}
		if quick {
			cfg = fleetConfig{nodes: 2, menu: fleetMenu[:4], perShape: 1, traces: 1}
		}
		return newFleet(cfg, seed)
	},
}

func planningWorkload(cfg planningConfig) func(int64, bool) (bench, error) {
	return func(seed int64, quick bool) (bench, error) { return newPlanning(cfg, seed, quick) }
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	spans    string // spans file of a traced run
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. The last stdout line carries
// Correct, Attempted, Failed and one metric set; -out writes it all.
type result struct {
	Schema      int     `json:"schema"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Quick       bool    `json:"quick"`
	InputDigest string  `json:"input_digest"`
	// SimDigest hashes the simulated metrics' exact bits; it depends
	// only on the code and the inputs.
	SimDigest  string `json:"sim_digest"`
	Jobs       int    `json:"jobs"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Timestamp  string `json:"timestamp"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	EndToEnd map[string]metric  `json:"end_to_end"`
	PerLayer map[string]metric  `json:"per_layer,omitempty"`
	Timings  map[string]summary `json:"timings"`
}

// endToEnd lists the end-to-end metrics, in BENCHMARK.json order. The
// host times are in calib: multiples of the run's median calibration
// time (see calibrator); the -out file keeps them in ms as well.
var endToEnd = []struct{ name, unit string }{
	{"job_cost_p50", "calib"}, {"job_cost_p90", "calib"},
	{"plan_cost_p50", "calib"}, {"plan_cost_p90", "calib"},
	{"sim_cost_p50", "calib"}, {"sim_cost_p90", "calib"},
	{"sim_samples_per_s", "samples/s"},
	{"gap_to_ideal_pct", "%"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// runtimeTotals accumulates runtime.MemStats deltas over jobs.
type runtimeTotals struct {
	jobs                 int
	allocBytes, gcCycles uint64
	pauseNs              uint64
}

func (r *runtimeTotals) add(before, after *runtime.MemStats) {
	r.jobs++
	r.allocBytes += after.TotalAlloc - before.TotalAlloc
	r.gcCycles += uint64(after.NumGC - before.NumGC)
	r.pauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// setups is how many times a run constructs and warms up its workload;
// setup_s is their median.
const setups = 5

// runBench sets the workload up, runs jobs in a closed loop (one
// client goroutine, no think time) until the measurement window has
// passed and the simulated metrics have their jobs, then checks and
// summarizes. In a traced run, even cycles are traced and odd cycles
// give the untraced times.
func runBench(o options) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	tl := &tally{}
	n := setups
	if o.quick {
		n = 1
	}
	var b bench
	var setupS []float64
	for r := 0; r < n; r++ {
		t0 := time.Now()
		nb, err := mk(o.seed, o.quick)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		nb.warmup(tl)
		setupS = append(setupS, time.Since(t0).Seconds())
		b = nb
	}

	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	minJobs := b.cycle()
	if o.trace {
		minJobs = 2 * b.cycle()
	}
	var jobMs, planMs, simMs, tracedMs, calMs []float64
	var strata []int // each untraced job's position in its cycle
	var rt runtimeTotals
	cal := newCalibrator()
	lastJobMs := 0.0
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	jobs := 0
	for i := 0; i < minJobs || time.Since(start) < window; i++ {
		// Every job starts from a collected heap, after one calibration
		// per started 500 ms of the previous job.
		runtime.GC()
		for k := 0; k == 0 || float64(k) < lastJobMs/500; k++ {
			calMs = append(calMs, ms(cal.run()))
		}
		traced := o.trace && (i/b.cycle())%2 == 0
		var tr *tracer
		var m0, m1 runtime.MemStats
		if traced {
			tr = rec.job(i)
		} else if o.trace {
			runtime.ReadMemStats(&m0)
		}
		jt, ok := b.job(i, tr, tl)
		tr.finish()
		if !ok {
			break
		}
		jobs++
		lastJobMs = ms(jt.job)
		if traced {
			tracedMs = append(tracedMs, ms(jt.job))
			continue
		}
		if o.trace {
			runtime.ReadMemStats(&m1)
			rt.add(&m0, &m1)
		}
		jobMs = append(jobMs, ms(jt.job))
		planMs = append(planMs, ms(jt.plan))
		simMs = append(simMs, ms(jt.sim))
		strata = append(strata, i%b.cycle())
	}
	if tl.failed == 0 {
		b.rerunFirst(tl)
	}

	res := &result{
		Schema: 1, Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace, Quick: o.quick, InputDigest: b.inputDigest(), Jobs: jobs,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Attempted: tl.attempted, Failed: tl.failed, Errors: tl.errs,
		Timings: map[string]summary{},
	}
	res.Correct = tl.failed == 0
	if !res.Correct {
		return res, nil
	}

	job, plan, sim := summarize(jobMs, strata), summarize(planMs, strata), summarize(simMs, strata)
	res.Timings["job_ms"], res.Timings["plan_ms"], res.Timings["sim_ms"] = job, plan, sim
	res.Timings["setup_s"] = summarize(setupS, nil)
	res.Timings["calib_ms"] = summarize(calMs, nil)
	calib := res.Timings["calib_ms"].P50
	samplesPerS, gapPct := b.simulated()
	h := sha256.New()
	fmt.Fprintf(h, "%x %x\n", math.Float64bits(samplesPerS), math.Float64bits(gapPct))
	res.SimDigest = hex.EncodeToString(h.Sum(nil))
	vals := map[string]float64{
		"job_cost_p50": job.P50 / calib, "job_cost_p90": job.P90 / calib,
		"plan_cost_p50": plan.P50 / calib, "plan_cost_p90": plan.P90 / calib,
		"sim_cost_p50": sim.P50 / calib, "sim_cost_p90": sim.P90 / calib,
		"sim_samples_per_s": samplesPerS,
		"gap_to_ideal_pct":  gapPct,
		"setup_s":           median(setupS),
		"peak_rss_mb":       peakRSSMB(),
	}
	res.EndToEnd = map[string]metric{}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = metric{vals[m.name], m.unit}
	}

	if o.trace {
		res.Timings["traced_job_ms"] = summarize(tracedMs, nil)
		res.PerLayer = perLayer(rec.layers(), b, &rt, median(tracedMs), job.P50)
		if err := rec.writeSpans(o.spans, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's total memory
// obtained from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// commit is the VCS revision the binary was built from, when the build
// stamped one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// tally counts attempted and failed calls and checks.
type tally struct {
	attempted, failed int
	errs              []string // the first few failures
}

// call records a call's outcome and reports whether it succeeded.
func (t *tally) call(what string, err error) bool {
	if err != nil {
		err = fmt.Errorf("%s: %w", what, err)
	}
	t.check(err)
	return err == nil
}

// check records one check; a non-nil error is a failure.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
}

// expect returns nil when ok holds and the formatted error otherwise.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
