package mapping

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
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

// TestRAPSearchSkipsSourceWithinMargin: a destination that lands less
// than the 1e-9 margin below the bottleneck rejects the move on its own,
// so the source is never scored for it. GPU 0 starts as the bottleneck
// (cost 1, every other GPU 0); every candidate destination scores
// 1 - 5e-10, and a candidate source would score 0.
func TestRAPSearchSkipsSourceWithinMargin(t *testing.T) {
	plan := preproc.SkewedPlan(6, nil)
	cfg := cfgFor(t, plan, 4)
	calls := map[int]int{} // per GPU; the first is its locality assignment
	cfg.Cost = func(gpu int, items []Assign, comm float64) float64 {
		calls[gpu]++
		switch {
		case calls[gpu] == 1 && gpu == 0:
			return 1
		case calls[gpu] == 1:
			return 0
		case gpu == 0:
			return 0
		default:
			return 1 - 5e-10
		}
	}
	res, err := RAPSearch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Fatalf("%d moves, want 0: no destination clears the margin", res.Moves)
	}
	if calls[1] < 2 {
		t.Fatal("no candidate reached the destination; the margin was not exercised")
	}
	if calls[0] != 1 {
		t.Fatalf("source scored %d times for candidates its destination already rejects", calls[0]-1)
	}
}

// TestRAPSearchNonFiniteCost gives one GPU a NaN or infinite cost at
// each point RAPSearch scores: the initial locality assignment, a
// candidate's destination and a candidate's source. The search must
// return an error naming that GPU and the value, never a mapping: NaN
// fails every comparison and an infinity hides every other cost.
func TestRAPSearchNonFiniteCost(t *testing.T) {
	// Initial costs: GPU 0 is the source, GPU 2 the destination.
	initial := []float64{1, 0.1, 0, 0.2}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// After its first call every GPU costs 0.5, which clears the
		// destination test against the source's 1.
		for _, at := range []struct {
			name string
			gpu  int
		}{
			{"initial", 3},
			{"destination", 2},
			{"source", 0},
		} {
			t.Run(fmt.Sprintf("%s/%v", at.name, v), func(t *testing.T) {
				cfg := cfgFor(t, preproc.SkewedPlan(6, nil), 4)
				calls := map[int]int{}
				cfg.Cost = func(gpu int, items []Assign, comm float64) float64 {
					calls[gpu]++
					first := calls[gpu] == 1
					switch {
					case gpu == at.gpu && first == (at.name == "initial"):
						return v
					case first:
						return initial[gpu]
					default:
						return 0.5
					}
				}
				res, err := RAPSearch(cfg)
				if err == nil {
					t.Fatalf("nil error, %d moves, for cost %v on GPU %d", res.Moves, v, at.gpu)
				}
				for _, want := range []string{fmt.Sprintf("GPU %d ", at.gpu), fmt.Sprint(v)} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error %q does not name %q", err, want)
					}
				}
			})
		}
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

// TestMappingRejectsNonFiniteConfig: a NaN or infinite LinkGBs, and a
// NaN, infinite or negative CapacityPerGPU entry, are errors from every
// strategy; a zero or negative LinkGBs still means the default.
func TestMappingRejectsNonFiniteConfig(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	for _, tc := range []struct {
		name  string
		set   func(*Config)
		valid bool
	}{
		{"LinkGBs default", func(c *Config) { c.LinkGBs = 0 }, true},
		{"LinkGBs negative default", func(c *Config) { c.LinkGBs = -1 }, true},
		{"LinkGBs NaN", func(c *Config) { c.LinkGBs = math.NaN() }, false},
		{"LinkGBs +Inf", func(c *Config) { c.LinkGBs = math.Inf(1) }, false},
		{"LinkGBs -Inf", func(c *Config) { c.LinkGBs = math.Inf(-1) }, false},
		{"capacity zero", func(c *Config) { c.CapacityPerGPU = []float64{0, 0} }, true},
		{"capacity NaN", func(c *Config) { c.CapacityPerGPU = []float64{100, math.NaN()} }, false},
		{"capacity +Inf", func(c *Config) { c.CapacityPerGPU = []float64{math.Inf(1), 100} }, false},
		{"capacity -Inf", func(c *Config) { c.CapacityPerGPU = []float64{100, math.Inf(-1)} }, false},
		{"capacity negative", func(c *Config) { c.CapacityPerGPU = []float64{-1, 100} }, false},
	} {
		for _, st := range []struct {
			name     string
			strategy func(Config) (*Result, error)
		}{
			{"DataParallel", DataParallel},
			{"DataLocality", DataLocality},
			{"RAPSearch", RAPSearch},
		} {
			cfg := cfgFor(t, plan, 2)
			tc.set(&cfg)
			_, err := st.strategy(cfg)
			if tc.valid && err != nil {
				t.Errorf("%s/%s: rejected: %v", tc.name, st.name, err)
			}
			if !tc.valid && err == nil {
				t.Errorf("%s/%s: accepted", tc.name, st.name)
			}
		}
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
		key := probe.key(gpu, items, comm)
		seen[key]++
		if seen[key] > 1 {
			t.Fatalf("candidate re-evaluated %d times (gpu %d, %d items)", seen[key], gpu, len(items))
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

// TestCostMemoKeyCoversEveryField: changing any input the cost reads
// (GPU, comm bytes, an item's graph, samples or list length, the item
// count or order) changes the key, and the key of a short list is the
// same whether or not a longer one was keyed before through the reused
// buffer.
func TestCostMemoKeyCoversEveryField(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	g0, g1 := plan.Graphs[0], plan.Graphs[1]
	shape := preproc.Shape{Samples: 4096, AvgListLen: 3}
	base := []Assign{{Graph: g0, Shape: shape}, {Graph: g1, Shape: shape}}
	with := func(i int, f func(*Assign)) []Assign {
		items := append([]Assign(nil), base...)
		f(&items[i])
		return items
	}
	m := newCostMemo(nil, plan)
	want := m.key(0, base, 1.5)
	keys := map[string]string{want: "base"}
	for _, c := range []struct {
		name  string
		gpu   int
		items []Assign
		comm  float64
	}{
		{"gpu", 1, base, 1.5},
		{"comm", 0, base, math.Nextafter(1.5, 2)},
		{"graph", 0, with(1, func(a *Assign) { a.Graph = g0 }), 1.5},
		{"samples", 0, with(1, func(a *Assign) { a.Shape.Samples++ }), 1.5},
		{"list length", 0, with(1, func(a *Assign) { a.Shape.AvgListLen = math.Nextafter(3, 4) }), 1.5},
		{"order", 0, []Assign{base[1], base[0]}, 1.5},
		{"fewer items", 0, base[:1], 1.5},
		{"more items", 0, append(append([]Assign(nil), base...), base[0]), 1.5},
	} {
		k := m.key(c.gpu, c.items, c.comm)
		if prev, ok := keys[k]; ok {
			t.Errorf("%s: same key as %s", c.name, prev)
		}
		keys[k] = c.name
	}
	if got := m.key(0, base, 1.5); got != want {
		t.Fatal("key of the base list changed after longer lists were keyed")
	}
}

// TestCostMemoKeyBitExact: the key is the encoded shape itself, not a
// digest of it, so assignments whose comm bytes or list lengths differ
// only in one float's last bit get distinct keys, and the key holds
// each float's exact bits.
func TestCostMemoKeyBitExact(t *testing.T) {
	plan := preproc.MustStandardPlan(1, nil)
	items := []Assign{{Graph: plan.Graphs[0], Shape: preproc.Shape{Samples: 4096, AvgListLen: 3}}}
	m := newCostMemo(nil, plan)
	base := m.key(0, items, 1.5)
	if len(base) != 8*(2+3*len(items)) {
		t.Fatalf("key is %d bytes, want 8 per encoded word", len(base))
	}
	flip := func(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }
	if m.key(0, items, flip(1.5)) == base {
		t.Error("comm bytes differing in the last bit share a key")
	}
	other := []Assign{items[0]}
	other[0].Shape.AvgListLen = flip(3)
	if m.key(0, other, 1.5) == base {
		t.Error("list lengths differing in the last bit share a key")
	}
	if got := binary.LittleEndian.Uint64([]byte(base[8:16])); got != math.Float64bits(1.5) {
		t.Errorf("comm word = %#x, want the bits of 1.5 (%#x)", got, math.Float64bits(1.5))
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

// rapSearchReference is RAPSearch as it was before the search scored a
// move's destination first: try scores the source and the destination
// of every candidate and rejects on the larger. FuzzRAPSearch holds
// RAPSearch to its plans.
func rapSearchReference(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Placement.NumGPUs
	perGPU, _ := assignLocality(cfg)
	memoized := newCostMemo(cfg.costFn(), cfg.Plan)
	cost := memoized.cost

	comm := make([]float64, n)
	costs := make([]float64, n)
	recompute := func(g int) {
		comm[g] = commOf(perGPU[g], g, cfg)
		costs[g] = cost(g, perGPU[g], comm[g])
	}
	for g := 0; g < n; g++ {
		recompute(g)
	}

	moves := 0
	for moves < maxMoves {
		src, dst := argmax(costs), argmin(costs)
		if src == dst || costs[src] <= costs[dst] {
			break
		}
		type cand struct {
			idx  int
			work float64
		}
		var cands []cand
		for i, a := range perGPU[src] {
			if len(a.Graph.Outputs) == 0 {
				continue
			}
			cands = append(cands, cand{i, a.Graph.TotalWork(a.Shape)})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].work > cands[b].work })
		if len(cands) > 8 {
			cands = cands[:8]
		}

		improved := false
		oldMax := costs[src]
		try := func(newSrcItems, newDstItems []Assign) bool {
			newSrcComm := commOf(newSrcItems, src, cfg)
			newDstComm := commOf(newDstItems, dst, cfg)
			newSrc := cost(src, newSrcItems, newSrcComm)
			newDst := cost(dst, newDstItems, newDstComm)
			if maxOf(newSrc, newDst) >= oldMax-1e-9 {
				return false
			}
			perGPU[src] = newSrcItems
			perGPU[dst] = newDstItems
			recompute(src)
			recompute(dst)
			moves++
			return true
		}
		for _, c := range cands {
			a := perGPU[src][c.idx]
			rest := append(append([]Assign(nil), perGPU[src][:c.idx]...), perGPU[src][c.idx+1:]...)
			if try(rest, append(append([]Assign(nil), perGPU[dst]...), a)) {
				improved = true
				break
			}
			if a.Shape.Samples >= 2*minSplitSamples {
				half := a.Shape
				half.Samples = a.Shape.Samples / 2
				keep := Assign{Graph: a.Graph, Shape: half}
				other := half
				other.Samples = a.Shape.Samples - half.Samples
				give := Assign{Graph: a.Graph, Shape: other}
				if try(append(append([]Assign(nil), rest...), keep),
					append(append([]Assign(nil), perGPU[dst]...), give)) {
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	hits, misses := memoized.cache.Stats()
	return &Result{Strategy: "rap", PerGPU: perGPU, CommBytes: comm, Moves: moves,
		CostEvals: misses, CostCacheHits: hits}, nil
}

// FuzzRAPSearch checks RAPSearch against rapSearchReference on random
// skewed plans (0–26 heavy features), 2–8 GPUs, random table sizes,
// capacities, batch and link bandwidth, under the default cost or
// under a pure cost that adds a seed-hashed term of up to 1 ms, which
// makes the destination and source scores vary independently. The
// placements, comm bytes and move count must match bit for bit, and
// RAPSearch may run no more cost evaluations than the reference. The
// seed corpus runs in tier-1; a long run is opt-in:
// `go test -run '^$' -fuzz FuzzRAPSearch -fuzztime 60s ./internal/mapping`.
func FuzzRAPSearch(f *testing.F) {
	f.Add(uint8(6), uint8(2), int64(1), false)
	f.Add(uint8(8), uint8(2), int64(2), true)
	f.Add(uint8(26), uint8(6), int64(3), false)
	f.Add(uint8(0), uint8(0), int64(4), true)
	f.Add(uint8(3), uint8(4), int64(5), true)
	f.Add(uint8(12), uint8(1), int64(6), false)
	f.Add(uint8(20), uint8(5), int64(7), true)
	f.Add(uint8(1), uint8(3), int64(8), false)

	plans := map[int]*preproc.Plan{}
	f.Fuzz(func(t *testing.T, heavy, gpus uint8, seed int64, hashed bool) {
		h := int(heavy) % 27
		plan, ok := plans[h]
		if !ok {
			plan = preproc.SkewedPlan(h, nil)
			plans[h] = plan
		}
		n := 2 + int(gpus)%7
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int64, plan.NumTables)
		for i := range sizes {
			sizes[i] = 1 + rng.Int63n(1<<22)
		}
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 4000 * rng.Float64()
		}
		cfg := Config{
			Plan:           plan,
			Placement:      dlrm.PlaceTables(sizes, n),
			PerGPUBatch:    1 + rng.Intn(8192),
			CapacityPerGPU: caps,
		}
		if rng.Intn(2) == 0 {
			cfg.LinkGBs = 1 + 299*rng.Float64()
		}
		if hashed {
			base := cfg.costFn()
			cfg.Cost = func(gpu int, items []Assign, comm float64) float64 {
				hs := fnv.New64a()
				var b [8]byte
				word := func(x uint64) {
					binary.LittleEndian.PutUint64(b[:], x)
					hs.Write(b[:])
				}
				word(uint64(seed))
				word(uint64(gpu))
				word(math.Float64bits(comm))
				for _, a := range items {
					hs.Write([]byte(a.Graph.Name))
					word(uint64(a.Shape.Samples))
					word(math.Float64bits(a.Shape.AvgListLen))
				}
				return base(gpu, items, comm) + float64(hs.Sum64()%1000)
			}
		}
		want, err := rapSearchReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RAPSearch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Moves != want.Moves {
			t.Fatalf("moves %d, reference %d", got.Moves, want.Moves)
		}
		if got.CostEvals > want.CostEvals {
			t.Fatalf("%d cost evaluations, reference %d", got.CostEvals, want.CostEvals)
		}
		if len(got.PerGPU) != len(want.PerGPU) || len(got.CommBytes) != len(want.CommBytes) {
			t.Fatalf("%d GPUs / %d comm entries, reference %d / %d",
				len(got.PerGPU), len(got.CommBytes), len(want.PerGPU), len(want.CommBytes))
		}
		for g := range want.PerGPU {
			if math.Float64bits(got.CommBytes[g]) != math.Float64bits(want.CommBytes[g]) {
				t.Fatalf("gpu %d: comm %v, reference %v", g, got.CommBytes[g], want.CommBytes[g])
			}
			gi, wi := got.PerGPU[g], want.PerGPU[g]
			if len(gi) != len(wi) {
				t.Fatalf("gpu %d: %d items, reference %d", g, len(gi), len(wi))
			}
			for i := range wi {
				if gi[i].Graph != wi[i].Graph || gi[i].Shape.Samples != wi[i].Shape.Samples ||
					math.Float64bits(gi[i].Shape.AvgListLen) != math.Float64bits(wi[i].Shape.AvgListLen) {
					t.Fatalf("gpu %d item %d: %s %+v, reference %s %+v",
						g, i, gi[i].Graph.Name, gi[i].Shape, wi[i].Graph.Name, wi[i].Shape)
				}
			}
		}
	})
}

// TestTotalCommInGPUOrder pins Result.TotalComm to a sum taken in GPU
// order. The 64 per-GPU volumes span sixteen orders of magnitude, so a
// sum taken in another order, such as the last GPU's volume first,
// misses it in the last bits.
func TestTotalCommInGPUOrder(t *testing.T) {
	res := &Result{CommBytes: make([]float64, 64)}
	want := 0.0
	for g := range res.CommBytes {
		v := math.Pow(10, float64(g%17)) * (1 + float64(g)/11)
		res.CommBytes[g] = v
		want += v
	}
	if got := res.TotalComm(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("TotalComm = %v, want %v (the in-order sum)", got, want)
	}
}
