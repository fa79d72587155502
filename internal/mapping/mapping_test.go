package mapping

import (
	"math"
	"testing"

	"rap/internal/dlrm"
	"rap/internal/preproc"
)

func cfgFor(t *testing.T, plan *preproc.Plan, gpus int) Config {
	t.Helper()
	sizes := make([]int64, plan.NumTables)
	for i := range sizes {
		sizes[i] = 1 << 20
	}
	caps := make([]float64, gpus)
	for i := range caps {
		caps[i] = 3000
	}
	return Config{
		Plan:           plan,
		Placement:      dlrm.PlaceTables(sizes, gpus),
		PerGPUBatch:    4096,
		CapacityPerGPU: caps,
	}
}

func TestDataParallelMapping(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	cfg := cfgFor(t, plan, 4)
	res, err := DataParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every GPU runs every graph on the per-GPU slice.
	for g := 0; g < 4; g++ {
		if len(res.PerGPU[g]) != len(plan.Graphs) {
			t.Fatalf("gpu %d has %d graphs, want %d", g, len(res.PerGPU[g]), len(plan.Graphs))
		}
		for _, a := range res.PerGPU[g] {
			if a.Shape.Samples != 4096 {
				t.Fatalf("DP slice samples = %d", a.Shape.Samples)
			}
		}
		if res.CommBytes[g] <= 0 {
			t.Fatal("DP mapping must pay input communication")
		}
	}
	// Perfectly balanced.
	if res.Imbalance() > 1.0001 {
		t.Fatalf("DP imbalance = %f", res.Imbalance())
	}
}

func TestDataLocalityMapping(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	cfg := cfgFor(t, plan, 4)
	res, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero communication: every graph sits with its consumer (plan 1 has
	// single-table graphs).
	if res.TotalComm() != 0 {
		t.Fatalf("DL comm = %f, want 0", res.TotalComm())
	}
	// Sparse graphs appear exactly once; dense graphs on every GPU.
	seen := map[string]int{}
	for g := range res.PerGPU {
		for _, a := range res.PerGPU[g] {
			seen[a.Graph.Name]++
			if len(a.Graph.Outputs) > 0 {
				// Whole-batch preprocessing on the home GPU.
				if a.Shape.Samples != 4096*4 {
					t.Fatalf("sparse graph %s samples = %d", a.Graph.Name, a.Shape.Samples)
				}
				home := cfg.Placement.TableGPU[a.Graph.Outputs[0].Table]
				if home != g {
					t.Fatalf("graph %s on gpu %d, home %d", a.Graph.Name, g, home)
				}
			}
		}
	}
	for _, g := range plan.Graphs {
		want := 1
		if len(g.Outputs) == 0 {
			want = 4
		}
		if seen[g.Name] != want {
			t.Fatalf("graph %s appears %d times, want %d", g.Name, seen[g.Name], want)
		}
	}
}

func TestDataLocalitySkewImbalance(t *testing.T) {
	plan := preproc.SkewedPlan(6, nil)
	cfg := cfgFor(t, plan, 4)
	res, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance() < 1.2 {
		t.Fatalf("skewed plan should imbalance DL mapping: %f", res.Imbalance())
	}
}

func TestRAPSearchImprovesSkewedBottleneck(t *testing.T) {
	plan := preproc.SkewedPlan(6, nil)
	cfg := cfgFor(t, plan, 4)
	// Tight capacity so the imbalance shows up as exposed cost.
	for i := range cfg.CapacityPerGPU {
		cfg.CapacityPerGPU[i] = 500
	}
	dl, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rap, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rap.Moves == 0 {
		t.Fatal("RAP search made no moves on a skewed plan")
	}
	cost := cfg.costFn()
	maxCost := func(r *Result) float64 {
		worst := 0.0
		for g := range r.PerGPU {
			if c := cost(g, r.PerGPU[g], r.CommBytes[g]); c > worst {
				worst = c
			}
		}
		return worst
	}
	if maxCost(rap) >= maxCost(dl) {
		t.Fatalf("RAP bottleneck %.1f not better than DL %.1f", maxCost(rap), maxCost(dl))
	}
	// RAP trades a little communication for balance.
	if rap.Imbalance() >= dl.Imbalance() {
		t.Fatalf("RAP imbalance %.3f not better than DL %.3f", rap.Imbalance(), dl.Imbalance())
	}
}

func TestRAPSearchNoMovesWhenBalanced(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	cfg := cfgFor(t, plan, 4)
	// Ample capacity: every GPU cost is 0, no move can help.
	for i := range cfg.CapacityPerGPU {
		cfg.CapacityPerGPU[i] = 1e9
	}
	rap, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rap.Moves != 0 {
		t.Fatalf("unnecessary moves: %d", rap.Moves)
	}
	if rap.TotalComm() != 0 {
		t.Fatal("balanced RAP should keep zero comm")
	}
}

func TestRAPSearchGraphConservation(t *testing.T) {
	plan := preproc.SkewedPlan(8, nil)
	cfg := cfgFor(t, plan, 4)
	for i := range cfg.CapacityPerGPU {
		cfg.CapacityPerGPU[i] = 300
	}
	rap, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sample conservation: every sparse graph's assignments cover the
	// global batch exactly once (whole or split); dense graphs cover one
	// per-GPU batch on every GPU.
	samples := map[string]int{}
	for g := range rap.PerGPU {
		for _, a := range rap.PerGPU[g] {
			samples[a.Graph.Name] += a.Shape.Samples
		}
	}
	for _, g := range plan.Graphs {
		want := cfg.PerGPUBatch * cfg.Placement.NumGPUs
		if samples[g.Name] != want {
			t.Fatalf("graph %s covers %d samples, want %d", g.Name, samples[g.Name], want)
		}
	}
	// Comm is consistent with placements: recompute from scratch.
	for g := range rap.PerGPU {
		if diff := commOf(rap.PerGPU[g], g, cfg) - rap.CommBytes[g]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("gpu %d comm drifted", g)
		}
	}
}

func TestMappingValidation(t *testing.T) {
	plan := preproc.MustStandardPlan(0, nil)
	bad := cfgFor(t, plan, 2)
	bad.PerGPUBatch = 0
	if _, err := DataParallel(bad); err == nil {
		t.Fatal("bad batch accepted")
	}
	if _, err := DataLocality(Config{}); err == nil {
		t.Fatal("nil plan accepted")
	}
	if _, err := RAPSearch(Config{Plan: plan}); err == nil {
		t.Fatal("missing placement accepted")
	}
}

// TestMappingRejectsUnplacedTables: a placement that covers fewer tables
// than the plan's graphs feed is an error from every strategy, not an
// index panic.
func TestMappingRejectsUnplacedTables(t *testing.T) {
	cfg := cfgFor(t, preproc.MustStandardPlan(1, nil), 2)
	cfg.Placement = dlrm.Placement{NumGPUs: 2, TableGPU: []int{0, 1}}
	for _, tc := range []struct {
		name     string
		strategy func(Config) (*Result, error)
	}{
		{"DataParallel", DataParallel},
		{"DataLocality", DataLocality},
		{"RAPSearch", RAPSearch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.strategy(cfg); err == nil {
				t.Fatal("placement covering 2 of 26 tables accepted")
			}
		})
	}
}

func TestHomeGPUMajority(t *testing.T) {
	pl := dlrm.Placement{NumGPUs: 2, TableGPU: []int{0, 1, 1}}
	g := &preproc.Graph{
		Name: "multi",
		Ops:  []preproc.Op{preproc.NewFillNullSparse("fn", "cat_0", "x", 0)},
		Outputs: []preproc.GraphOutput{
			{Table: 0, Col: "x"}, {Table: 1, Col: "x"}, {Table: 2, Col: "x"},
		},
	}
	if got := homeGPU(g, pl); got != 1 {
		t.Fatalf("homeGPU = %d, want 1 (majority)", got)
	}
	dense := &preproc.Graph{Name: "d"}
	if got := homeGPU(dense, pl); got != -1 {
		t.Fatalf("dense home = %d", got)
	}
}

func TestNGramGraphCommCharged(t *testing.T) {
	// Plan 2 has NGram graphs feeding 3 tables; if those tables land on
	// different GPUs, DL mapping pays for the remote outputs.
	plan := preproc.MustStandardPlan(2, nil)
	cfg := cfgFor(t, plan, 4)
	res, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-output graphs exist, and with greedy placement at least one
	// has outputs on two GPUs, so some comm is expected.
	if res.TotalComm() == 0 {
		t.Skip("placement happened to co-locate all multi-output graphs")
	}
}

func TestRAPSearchMemoNeverReEvaluates(t *testing.T) {
	plan := preproc.SkewedPlan(6, nil)
	cfg := cfgFor(t, plan, 4)
	for i := range cfg.CapacityPerGPU {
		cfg.CapacityPerGPU[i] = 500
	}
	// A counting cost that records every (shape-keyed) evaluation: the
	// memo must never hand the same candidate to the cost model twice.
	seen := map[string]int{}
	base := cfg.costFn()
	probe := newCostMemo(nil, plan) // key helper only
	cfg.Cost = func(gpu int, items []Assign, comm float64) float64 {
		if key := probe.key(gpu, items, comm); key != "" {
			seen[key]++
			if seen[key] > 1 {
				t.Fatalf("candidate re-evaluated %d times (gpu %d, %d items)", seen[key], gpu, len(items))
			}
		}
		return base(gpu, items, comm)
	}
	res, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("search made no moves; memo not exercised")
	}
	if res.CostCacheHits == 0 {
		t.Fatal("no cache hits on a multi-iteration search")
	}
	if res.CostEvals != len(seen) {
		t.Fatalf("CostEvals = %d, distinct evaluations = %d", res.CostEvals, len(seen))
	}
}

func TestRAPSearchMemoDoesNotChangeResult(t *testing.T) {
	// The memo is pure plumbing: a run scored through it must equal a
	// run whose cost function bypasses keying entirely (cfg.Cost wraps
	// the default, but the wrapper is transparent).
	plan := preproc.SkewedPlan(6, nil)
	cfg := cfgFor(t, plan, 4)
	for i := range cfg.CapacityPerGPU {
		cfg.CapacityPerGPU[i] = 500
	}
	a, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Moves != b.Moves || a.Imbalance() != b.Imbalance() || a.TotalComm() != b.TotalComm() {
		t.Fatalf("memoized search nondeterministic: %+v vs %+v", a, b)
	}
}

// TestDefaultCostFormula checks the default cost — the one every test
// without a Cost override searches with — against a hand computation:
// max(0, Σwork − capacity) + bytes/(LinkGBs·1e3), with LinkGBs
// defaulting to 300 GB/s and a GPU past the end of CapacityPerGPU
// getting no capacity at all.
func TestDefaultCostFormula(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	cfg := cfgFor(t, plan, 4)
	dl, err := DataLocality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := dl.PerGPU[0]
	work := 0.0
	for _, a := range items {
		work += a.Graph.TotalWork(a.Shape)
	}
	if work <= 0 {
		t.Fatal("GPU 0 has no preprocessing work")
	}
	const bytes = 6e6
	cases := []struct {
		name     string
		linkGBs  float64
		caps     []float64
		gpu      int
		wantCost float64
	}{
		{"default link, work past capacity", 0, []float64{work / 2}, 0, work/2 + bytes/(300*1e3)},
		{"default link, work within capacity", 0, []float64{2 * work}, 0, bytes / (300 * 1e3)},
		{"explicit link, GPU past CapacityPerGPU", 100, []float64{2 * work}, 3, work + bytes/(100*1e3)},
	}
	for _, c := range cases {
		cfg.LinkGBs, cfg.CapacityPerGPU = c.linkGBs, c.caps
		if got := cfg.costFn()(c.gpu, items, bytes); math.Abs(got-c.wantCost) > 1e-9*c.wantCost {
			t.Errorf("%s: cost %g, want %g", c.name, got, c.wantCost)
		}
	}
}
