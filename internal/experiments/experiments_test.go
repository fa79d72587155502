package experiments

import (
	"math"
	"strings"
	"testing"

	"rap/internal/baselines"
	"rap/internal/rap"
)

func TestFigure1a(t *testing.T) {
	r, err := Figure1a()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) < 50 {
		t.Fatalf("too few samples: %d", len(r.Samples))
	}
	// The paper's point: utilization fluctuates. Expect both high and
	// low SM samples.
	var lo, hi bool
	for _, s := range r.Samples {
		if s.SM < 0.4 {
			lo = true
		}
		if s.SM > 0.6 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatalf("no fluctuation: lo=%v hi=%v", lo, hi)
	}
	if !strings.Contains(r.Render(), "SM util") {
		t.Fatal("render missing series")
	}
}

func TestFigure1b(t *testing.T) {
	r, err := Figure1b()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Utilization grows with input size and saturates.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].SMUtil < r.Rows[i-1].SMUtil-1e-9 {
			t.Fatal("SM util not monotone")
		}
	}
	if r.Rows[len(r.Rows)-1].SMUtil < 0.99 {
		t.Fatalf("largest kernel should saturate: %f", r.Rows[4].SMUtil)
	}
	if r.Rows[0].SMUtil > 0.9 {
		t.Fatalf("smallest kernel should not saturate: %f", r.Rows[0].SMUtil)
	}
	_ = r.Render()
}

func TestFigure1c(t *testing.T) {
	r, err := Figure1c()
	if err != nil {
		t.Fatal(err)
	}
	// Small overlaps are nearly free; large ones stretch the MLP.
	first := r.Rows[1] // 8 features
	last := r.Rows[len(r.Rows)-1]
	if first.StretchFactor > 1.15 {
		t.Fatalf("small ngram already contends: %f", first.StretchFactor)
	}
	if last.StretchFactor < 1.3 {
		t.Fatalf("big ngram does not contend: %f", last.StretchFactor)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].StretchFactor < r.Rows[i-1].StretchFactor-1e-9 {
			t.Fatal("stretch not monotone")
		}
	}
	_ = r.Render()
}

func TestFigure5(t *testing.T) {
	r, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 5(b): overlap latency grows with standalone latency within each op.
	byOp := map[string][]Figure5Row{}
	for _, row := range r.Rows {
		byOp[row.Op] = append(byOp[row.Op], row)
	}
	for op, rows := range byOp {
		for i := 1; i < len(rows); i++ {
			if rows[i].StandaloneUs > rows[i-1].StandaloneUs && rows[i].OverlapUs < rows[i-1].OverlapUs {
				t.Fatalf("%s: overlap latency not monotone in standalone latency", op)
			}
		}
	}
	// 5(c): at comparable warp counts, different op types pay different
	// overlap latencies (the misalignment that motivates the latency
	// abstraction). NGram is costlier per warp than Logit.
	var ng, lg Figure5Row
	for _, row := range byOp["Ngram"] {
		ng = row
		break
	}
	for _, row := range byOp["Logit"] {
		lg = row
		break
	}
	if ng.StandaloneUs <= lg.StandaloneUs {
		t.Fatal("per-warp cost misalignment missing")
	}
	_ = r.Render()
}

func TestTable5(t *testing.T) {
	if testing.Short() {
		t.Skip("predictor training is slow")
	}
	r, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"1D Ops", "FirstX", "Ngram", "Onehot", "Bucketize"} {
		if r.Accuracy[cat] < 0.8 {
			t.Fatalf("category %s accuracy %.3f", cat, r.Accuracy[cat])
		}
	}
	if !strings.Contains(r.Render(), "Table 5") {
		t.Fatal("render broken")
	}
}

func TestFigure9Quick(t *testing.T) {
	r, err := Figure9(QuickFigure9())
	if err != nil {
		t.Fatal(err)
	}
	sp := r.Speedups()
	if sp[baselines.SystemSequential] < 1.3 {
		t.Fatalf("RAP vs sequential = %.2f", sp[baselines.SystemSequential])
	}
	if sp[baselines.SystemTorchArrow] < 2 {
		t.Fatalf("RAP vs TorchArrow = %.2f", sp[baselines.SystemTorchArrow])
	}
	// RAP within 10% of ideal on plan 1.
	if v := sp[baselines.SystemIdeal]; v < 0.88 || v > 1.01 {
		t.Fatalf("RAP vs ideal = %.3f", v)
	}
	if !strings.Contains(r.Render(), "Figure 9") {
		t.Fatal("render broken")
	}
}

func TestFigure10Quick(t *testing.T) {
	r, err := Figure10([]int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering: Sequential < ablations ≤ RAP ≤ Ideal.
	seq := r.lookup(1, F10Sequential)
	noMap := r.lookup(1, F10NoMapping)
	noFus := r.lookup(1, F10NoFusion)
	full := r.lookup(1, F10RAP)
	ideal := r.lookup(1, F10Ideal)
	if !(seq < noMap && seq < noFus && noFus <= full*1.02 && full <= ideal*1.001) {
		t.Fatalf("ordering broken: seq=%.0f noMap=%.0f noFus=%.0f rap=%.0f ideal=%.0f",
			seq, noMap, noFus, full, ideal)
	}
	if gap := r.GapFromIdeal(); gap > 0.15 {
		t.Fatalf("RAP gap from ideal = %.3f", gap)
	}
	_ = r.Render()
}

func TestFigure11Quick(t *testing.T) {
	r, err := Figure11([]int{0, 32, 96}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// RAP's curve should stay at or below the baseline's everywhere.
	for _, k := range r.Sweep {
		b, _ := r.point(F11Baseline, k)
		rp, _ := r.point(F11RAP, k)
		if rp.LatencyUs > b.LatencyUs*1.05 {
			t.Fatalf("RAP slower than baseline at %d ngrams: %.0f vs %.0f", k, rp.LatencyUs, b.LatencyUs)
		}
	}
	t4 := Table4(r)
	if len(t4.Rows) != 3 {
		t.Fatalf("table4 rows = %d", len(t4.Rows))
	}
	// RAP sustains higher utilization at its turning point than the
	// baseline at its (Table 4's claim).
	if t4.Rows[F11RAP].SMUtil <= 0 {
		t.Fatal("no utilization recorded")
	}
	_ = r.Render()
	_ = t4.Render()
}

func TestFigure12Quick(t *testing.T) {
	r, err := Figure12(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	var dp, dl, rp Figure12Row
	for _, row := range r.Rows {
		switch row.Strategy {
		case rap.MapDataParallel:
			dp = row
		case rap.MapDataLocality:
			dl = row
		case rap.MapRAP:
			rp = row
		}
	}
	// DP pays communication; DL is imbalanced; RAP beats both on
	// exposed latency.
	if dp.CommUs <= dl.CommUs {
		t.Fatalf("DP comm %.0f should exceed DL comm %.0f", dp.CommUs, dl.CommUs)
	}
	if dl.Imbalance <= rp.Imbalance {
		t.Fatalf("DL imbalance %.2f should exceed RAP %.2f", dl.Imbalance, rp.Imbalance)
	}
	// RAP clearly beats DL (the imbalance case); it matches DP within
	// noise (NVSwitch-class links make DP's input communication cheap in
	// this substrate — see EXPERIMENTS.md, known deviations).
	if rp.ExposedUs > dl.ExposedUs*0.7 {
		t.Fatalf("RAP exposed %.0f vs DL %.0f — imbalance win missing", rp.ExposedUs, dl.ExposedUs)
	}
	if rp.ExposedUs > dp.ExposedUs*1.25 {
		t.Fatalf("RAP exposed %.0f vs DP %.0f", rp.ExposedUs, dp.ExposedUs)
	}
	_ = r.Render()
}

// TestFigure12RenderFullyHidden: when RAP's exposure is 0 no reduction
// factor is finite, so Render names the DP and DL exposures in µs and
// prints no ratio; with RAP exposure it prints the two factors.
func TestFigure12RenderFullyHidden(t *testing.T) {
	r := &Figure12Result{GPUs: 4, Rows: []Figure12Row{
		{Strategy: rap.MapDataParallel, ExposedUs: 248},
		{Strategy: rap.MapDataLocality, ExposedUs: 688},
		{Strategy: rap.MapRAP, ExposedUs: 0},
	}}
	if got := r.Reduction(rap.MapDataLocality); !math.IsInf(got, 1) {
		t.Fatalf("Reduction vs DL = %v, want +Inf", got)
	}
	out := r.Render()
	if want := "RAP hides all exposed latency; DP exposes 248 us/iter and DL 688 us/iter."; !strings.Contains(out, want) {
		t.Fatalf("Render missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "x vs") {
		t.Fatalf("Render prints a ratio although RAP hides everything:\n%s", out)
	}
	r.Rows[2].ExposedUs = 124
	if want := "RAP reduces exposed latency by 2.0x vs DP and 5.5x vs DL."; !strings.Contains(r.Render(), want) {
		t.Fatalf("Render missing %q:\n%s", want, r.Render())
	}
}

func TestPowerStudy(t *testing.T) {
	r, err := PowerStudy(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ta := r.row(baselines.SystemTorchArrow)
	rp := r.row(baselines.SystemRAP)
	// The §2.1 motivation: with CPU-tier preprocessing the host burns
	// power on the same order as the trainers...
	if ta.PreprocPowerShare < 0.3 {
		t.Fatalf("TorchArrow host power share %.2f — motivation not reproduced", ta.PreprocPowerShare)
	}
	// ...while RAP leaves the host tier nearly idle.
	if rp.PreprocPowerShare > 0.25 {
		t.Fatalf("RAP host power share %.2f too high", rp.PreprocPowerShare)
	}
	// And RAP's energy per trained sample is several times lower.
	if r.EnergySaving() < 3 {
		t.Fatalf("energy saving %.1fx too small", r.EnergySaving())
	}
	if r.Render() == "" {
		t.Fatal("render empty")
	}
}

// TestFigure9SpeedupsInCellOrder pins Speedups to each baseline's mean
// of RAP's per-configuration ratios, summed in cell order. The synthetic
// grid holds 24 configurations per system whose ratios span seventeen
// orders of magnitude, so a sum in another order misses the in-order
// one in its last bits for most baselines. The quick grid cannot show
// that: it has one cell per system.
func TestFigure9SpeedupsInCellOrder(t *testing.T) {
	r := &Figure9Result{}
	sums := map[baselines.System]float64{}
	i := 0
	for plan := 0; plan < 4; plan++ {
		for _, batch := range []int{4096, 8192} {
			for _, gpus := range []int{2, 4, 8} {
				rapThr := 1e5 * (1 + float64(i)/3)
				for s, sys := range baselines.AllSystems() {
					thr := rapThr
					if sys != baselines.SystemRAP {
						thr = rapThr / (math.Pow(10, float64((i*7+s*3)%17)) * (1 + float64(i+s)/7))
						sums[sys] += rapThr / thr
					}
					r.Cells = append(r.Cells, Figure9Cell{Plan: plan, Batch: batch, GPUs: gpus, System: sys, Samples: thr})
				}
				i++
			}
		}
	}
	got := r.Speedups()
	if len(got) != len(sums) {
		t.Fatalf("got speedups for %d systems, want %d: %v", len(got), len(sums), got)
	}
	for sys, s := range sums {
		if want := s / float64(i); math.Float64bits(got[sys]) != math.Float64bits(want) {
			t.Errorf("vs %s: mean speedup %v, want %v (the in-order mean)", sys, got[sys], want)
		}
	}
}
