package cluster

import (
	"math"
	"strings"
	"testing"

	"rap/internal/rap"
	"rap/internal/topo"
)

// matchReference simulates jobs on a fresh simulator and requires the
// report digest, or the error text, that simulateReference gives on
// another; it returns Simulate's report and error. The fresh simulator
// is then run again on its warm plan cache, which must not change the
// result.
func matchReference(t *testing.T, fleet *topo.Topology, pol Policy, jobs []Job) (*Report, error) {
	t.Helper()
	fresh := func() *Simulator {
		s, err := New(Config{Topo: fleet, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	outcome := func(rep *Report, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return rep.Digest()
	}
	want := outcome(simulateReference(fresh(), jobs))
	s := fresh()
	rep, err := s.Simulate(jobs)
	if got := outcome(rep, err); got != want {
		t.Fatalf("%s: Simulate gives %s, the reference %s", pol.Name(), got, want)
	}
	if got := outcome(s.Simulate(jobs)); got != want {
		t.Fatalf("%s: warm plan cache gives %s, the reference %s", pol.Name(), got, want)
	}
	return rep, err
}

// mixedJob is a job of one of four cheap shapes, all distinct plans.
func mixedJob(id int, arrival float64, kind, iters int) Job {
	shapes := []JobShape{
		{Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 2048, GPUs: 2},
		{Dataset: rap.Kaggle, PlanIdx: 0, PerGPUBatch: 4096, GPUs: 4},
		{Dataset: rap.Kaggle, PlanIdx: 1, PerGPUBatch: 2048, GPUs: 1},
		{Dataset: rap.Terabyte, PlanIdx: 1, PerGPUBatch: 2048, GPUs: 2},
	}
	sh := shapes[kind]
	sh.Iterations = iters
	return Job{ID: id, ArrivalUs: arrival, Shape: sh}
}

// TestSimulateMatchesReference: on traces that start several jobs at
// one instant, Simulate agrees with simulateReference under both
// policies, from a cold and a warm plan cache.
func TestSimulateMatchesReference(t *testing.T) {
	fleet := topo.Uniform(2, 4)
	fleet.FabricGBs = 20
	fleet.Oversub = 2
	cases := []struct {
		name string
		jobs []Job
		err  string // a prefix of the error both loops return, if any
	}{
		// Fills the fleet at t = 0 with four shapes, one of them twice
		// on the same pattern (one simulation for both); the rest
		// queue behind them.
		{"burst", []Job{
			mixedJob(0, 0, 0, 9), mixedJob(1, 0, 1, 4), mixedJob(2, 0, 2, 12),
			mixedJob(3, 0, 0, 9), mixedJob(4, 0, 3, 6), mixedJob(5, 0, 1, 3),
		}, ""},
		// A burst between Poisson-like arrivals: resolving must not
		// wait for the later arrival, nor let it in early.
		{"burst between arrivals", []Job{
			mixedJob(0, 0, 2, 5), mixedJob(1, 40, 3, 7), mixedJob(2, 40, 1, 3),
			mixedJob(3, 40, 0, 8), mixedJob(4, 41, 2, 2), mixedJob(5, 900, 0, 4),
		}, ""},
		// Split jobs beside co-tenants: the fabric scales differ
		// between jobs started at one instant.
		{"split burst", []Job{
			mixedJob(0, 0, 2, 30), mixedJob(1, 0, 1, 5), mixedJob(2, 0, 3, 5),
			mixedJob(3, 0, 3, 5), mixedJob(4, 10, 1, 5),
		}, ""},
		// At 1e22 µs a float64 step is about 2 s, so these
		// millisecond jobs would end at their start instant: an error
		// naming the first of them, not a completion resolved while
		// the jobs started with it still hold their GPUs.
		{"end rounds to start", []Job{
			mixedJob(0, 1e22, 2, 3), mixedJob(1, 1e22, 0, 2), mixedJob(2, 1e22, 1, 2),
		}, "cluster: job 0 (kaggle plan 1, batch 2048, 1 GPUs): simulated duration"},
	}
	for _, c := range cases {
		for _, pol := range []Policy{Pack{}, FirstFit{}} {
			t.Run(c.name+"/"+pol.Name(), func(t *testing.T) {
				rep, err := matchReference(t, fleet, pol, c.jobs)
				if c.err != "" {
					if err == nil || !strings.HasPrefix(err.Error(), c.err) {
						t.Fatalf("got %v, want an error starting %q", err, c.err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				checkFleetReport(t, rep, c.jobs, fleet.NumGPUs())
			})
		}
	}
}

// TestTiedCompletionsStartPendingJobs: two identical jobs end at the
// same instant, and each completion starts a queued job. The second
// completion is removed from the running set while the job the first
// one started is still pending, which must keep that job's place.
func TestTiedCompletionsStartPendingJobs(t *testing.T) {
	jobs := []Job{
		mixedJob(0, 0, 0, 10), mixedJob(1, 0, 0, 10),
		mixedJob(2, 1, 3, 4), mixedJob(3, 1, 2, 6), mixedJob(4, 1, 2, 3),
	}
	rep, err := matchReference(t, smallFleet(), Pack{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	checkFleetReport(t, rep, jobs, smallFleet().NumGPUs())
	r := rep.Results
	if !(r[0].EndUs == r[1].EndUs && r[2].StartUs == r[0].EndUs && r[3].StartUs == r[0].EndUs) {
		t.Fatalf("no tie: jobs 0 and 1 end at %v and %v, jobs 2 and 3 start at %v and %v",
			r[0].EndUs, r[1].EndUs, r[2].StartUs, r[3].StartUs)
	}
}

// TestCompletionTiedWithArrivals: jobs arrive exactly when a running
// job ends. The completion frees its GPUs first, the arrivals start
// at that instant, and a job still running keeps its tenancy.
func TestCompletionTiedWithArrivals(t *testing.T) {
	fleet := topo.Uniform(2, 4)
	fleet.FabricGBs = 20
	fleet.Oversub = 2
	for _, pol := range []Policy{Pack{}, FirstFit{}} {
		first, err := matchReference(t, fleet, pol, []Job{mixedJob(0, 0, 1, 3)})
		if err != nil {
			t.Fatal(err)
		}
		end := first.Results[0].EndUs
		jobs := []Job{
			mixedJob(0, 0, 1, 3), mixedJob(1, 0, 0, 40),
			mixedJob(2, end, 1, 2), mixedJob(3, end, 3, 5), mixedJob(4, end, 2, 4),
		}
		rep, err := matchReference(t, fleet, pol, jobs)
		if err != nil {
			t.Fatal(err)
		}
		checkFleetReport(t, rep, jobs, fleet.NumGPUs())
		if got := rep.Results[0].EndUs; got != end || rep.Results[2].StartUs != end {
			t.Fatalf("%s: job 0 ends at %v alone and %v in the trace; job 2 starts at %v",
				pol.Name(), end, got, rep.Results[2].StartUs)
		}
	}
}

// TestPendingFailuresInStartOrder: the error Simulate returns is the
// one of the earliest-started job that fails, as if each job were
// planned when it started; a placement error waits for the jobs
// started before it.
func TestPendingFailuresInStartOrder(t *testing.T) {
	badPlan := func(id int) Job {
		j := mixedJob(id, 0, 0, 3)
		j.Shape.PlanIdx = 9
		return j
	}
	badData := func(id int) Job {
		j := mixedJob(id, 0, 2, 3)
		j.Shape.Dataset = "x"
		return j
	}
	fleet := topo.Uniform(2, 4)
	cases := []struct {
		name string
		pol  Policy
		jobs []Job
		want string
	}{
		{"plan failure mid-burst", Pack{}, []Job{mixedJob(0, 0, 3, 3), badData(1), badPlan(2), mixedJob(3, 0, 1, 2)},
			`cluster: job 1 (x plan 1, batch 2048, 1 GPUs): rap: unknown dataset "x"`},
		{"plan failure before a placement error", lowestN{}, []Job{badPlan(0), mixedJob(1, 0, 0, 3)},
			"cluster: job 0 (kaggle plan 9, batch 2048, 2 GPUs): preproc: no standard plan 9 (want 0-3)"},
		{"placement error after good starts", lowestN{}, []Job{mixedJob(0, 0, 3, 3), mixedJob(1, 0, 0, 3)},
			"cluster: policy lowest-n placed job 1 on GPU 0, which another job still holds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := matchReference(t, fleet, c.pol, c.jobs)
			if err == nil || err.Error() != c.want {
				t.Fatalf("got %v, want %q", err, c.want)
			}
		})
	}
}

// TestJobDurationRejectsNonPositive: a job that would end at or before
// its start, or never, is an error naming the job; same-instant jobs
// may resolve together only because a started job ends strictly later.
// A positive duration that rounds away against a large start time, or
// overflows the end, counts as not ending later.
func TestJobDurationRejectsNonPositive(t *testing.T) {
	j := kaggleJob(7, 0, 2, 10)
	good := durEntry{makespanUs: 100, steadyUs: 10}
	for _, start := range []float64{0, 5e3, 1e15} {
		if dur, err := jobDuration(j, start, 8, good); err != nil || dur != 120 {
			t.Fatalf("start %v: got %v, %v; want 120", start, dur, err)
		}
	}
	for _, c := range []struct {
		start float64
		ent   durEntry
	}{
		{0, durEntry{0, 0}}, {0, durEntry{-5, 1}}, {0, durEntry{10, -20}},
		{0, durEntry{math.NaN(), 1}}, {0, durEntry{1, math.NaN()}},
		{0, durEntry{math.Inf(1), 1}}, {0, durEntry{1, math.Inf(1)}},
		{1e22, good}, {math.MaxFloat64, durEntry{math.MaxFloat64 / 2, 0}},
	} {
		_, err := jobDuration(j, c.start, 8, c.ent)
		want := "cluster: job 7 (kaggle plan 0, batch 2048, 2 GPUs): simulated duration"
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("start %v, %+v: got %v, want an error starting %q", c.start, c.ent, err, want)
		}
	}
}
