package dlrm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rap/internal/gpusim"
	"rap/internal/nn"
	"rap/internal/tensor"
)

func smallConfig(tables int, batch int) Config {
	sizes := make([]int64, tables)
	for i := range sizes {
		sizes[i] = 1000
	}
	return Config{
		Name: "small", NumDense: 4, EmbeddingDim: 8,
		BottomArch: []int{16}, TopArch: []int{16},
		TableSizes: sizes, BatchSize: batch, AvgPooling: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := KaggleConfig([]int64{10, 20}, 4096)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{NumDense: 1, EmbeddingDim: 8, BottomArch: []int{4}, TopArch: []int{4}, BatchSize: 4},
		{NumDense: 1, EmbeddingDim: 8, BottomArch: []int{4}, TopArch: []int{4}, TableSizes: []int64{0}, BatchSize: 4},
		{NumDense: 1, EmbeddingDim: 8, BottomArch: []int{4}, TopArch: []int{4}, TableSizes: []int64{5}},
		{NumDense: 1, EmbeddingDim: 8, BottomArch: []int{-4}, TopArch: []int{4}, TableSizes: []int64{5}, BatchSize: 4},
		{NumDense: 1, EmbeddingDim: 8, BottomArch: []int{4}, TopArch: []int{0}, TableSizes: []int64{5}, BatchSize: 4},
		{NumDense: 1, EmbeddingDim: 8, BottomArch: []int{4}, TopArch: []int{4}, TableSizes: []int64{5}, BatchSize: 4, AvgPooling: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// A non-positive AvgPooling is not an error: it defaults to 1.
	good.AvgPooling = -2
	if err := good.Validate(); err != nil || good.pooling() != 1 {
		t.Fatalf("AvgPooling -2: err %v, pooling %v", err, good.pooling())
	}
}

func TestConfigDims(t *testing.T) {
	c := KaggleConfig(make([]int64, 26), 4096)
	for i := range c.TableSizes {
		c.TableSizes[i] = 100
	}
	if got := c.InteractionFeatures(); got != 27 {
		t.Fatalf("F = %d", got)
	}
	if got := c.TopInputDim(); got != 128+27*26/2 {
		t.Fatalf("top input = %d", got)
	}
	bd := c.bottomDims()
	if bd[0] != 13 || bd[len(bd)-1] != 128 {
		t.Fatalf("bottom dims = %v", bd)
	}
	td := c.topDims()
	if td[0] != c.TopInputDim() || td[len(td)-1] != 1 {
		t.Fatalf("top dims = %v", td)
	}
	if c.MLPParams() <= 0 {
		t.Fatal("param count")
	}
	// Terabyte top arch is one layer deeper (Table 2).
	tb := TerabyteConfig(c.TableSizes, 4096)
	if len(tb.TopArch) != len(c.TopArch)+1 {
		t.Fatal("Terabyte top arch depth wrong")
	}
}

func TestPlaceTablesBalances(t *testing.T) {
	sizes := []int64{100, 100, 100, 100, 1000, 10, 10, 10}
	pl := PlaceTables(sizes, 4)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	load := make([]int64, 4)
	for tb, g := range pl.TableGPU {
		load[g] += sizes[tb]
	}
	var mx, mn int64 = 0, 1 << 62
	for _, l := range load {
		if l > mx {
			mx = l
		}
		if l < mn {
			mn = l
		}
	}
	// The big table dominates; everything else should pile on other GPUs.
	if mx != 1000 {
		t.Fatalf("greedy packing failed: loads %v", load)
	}
	_ = mn
	// Every table placed exactly once, all GPUs referenced validly.
	if len(pl.TableGPU) != len(sizes) {
		t.Fatal("placement size wrong")
	}
	// LocalTables partitions the table set.
	seen := map[int]bool{}
	for g := 0; g < 4; g++ {
		for _, tb := range pl.LocalTables(g) {
			if seen[tb] {
				t.Fatalf("table %d on two GPUs", tb)
			}
			seen[tb] = true
		}
	}
	if len(seen) != len(sizes) {
		t.Fatal("tables lost")
	}
}

func TestPlacementValidate(t *testing.T) {
	bad := Placement{NumGPUs: 2, TableGPU: []int{0, 5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid placement accepted")
	}
	if err := (Placement{NumGPUs: 0}).Validate(); err == nil {
		t.Fatal("zero-GPU placement accepted")
	}
}

func TestIterationStagesShape(t *testing.T) {
	c := TerabyteConfig(sizes26(), 4096)
	pl := PlaceTables(c.TableSizes, 4)
	st := c.IterationStages(0, pl)
	if len(st) != NumStages {
		t.Fatalf("stages = %d, want %d", len(st), NumStages)
	}
	byName := map[string]Stage{}
	for _, s := range st {
		byName[s.Name] = s
	}
	// MLP stages are compute-bound, embedding stages memory-bound (the
	// Figure 1a fluctuation).
	top := byName["top_fwd"].Kernel
	emb := byName["emb_lookup"].Kernel
	if top.Demand.SM <= emb.Demand.SM {
		t.Fatal("top MLP should be more SM-hungry than embedding lookup")
	}
	if emb.Demand.MemBW <= top.Demand.MemBW {
		t.Fatal("embedding lookup should be more bandwidth-hungry")
	}
	if byName["top_bwd"].Kernel.Work <= top.Work {
		t.Fatal("backward should cost more than forward")
	}
	if byName["a2a_fwd"].Kind != StageComm || byName["a2a_fwd"].Bytes <= 0 {
		t.Fatal("a2a stage wrong")
	}
	// Single GPU: no communication volume.
	pl1 := PlaceTables(c.TableSizes, 1)
	for _, s := range c.IterationStages(0, pl1) {
		if s.Kind == StageComm && s.Bytes != 0 {
			t.Fatalf("1-GPU comm stage %s has %f bytes", s.Name, s.Bytes)
		}
	}
}

func sizes26() []int64 {
	s := make([]int64, 26)
	for i := range s {
		s[i] = 1 << 20
	}
	return s
}

func TestIterationSoloLatencyPositive(t *testing.T) {
	c := TerabyteConfig(sizes26(), 4096)
	pl := PlaceTables(c.TableSizes, 8)
	lat := c.IterationSoloLatency(pl, 300)
	if lat <= 0 {
		t.Fatal("non-positive iteration latency")
	}
	// Bigger batches take longer.
	c2 := TerabyteConfig(sizes26(), 8192)
	if c2.IterationSoloLatency(pl, 300) <= lat {
		t.Fatal("latency not monotone in batch size")
	}
}

// addIteration schedules one training iteration of c under pl into sim
// through a fresh template.
func addIteration(c Config, sim *gpusim.Sim, pl Placement, iter int, extraDeps [][]gpusim.OpID) (IterHandle, error) {
	t, err := c.NewIterTemplate(pl)
	if err != nil {
		return IterHandle{}, err
	}
	return t.AddIteration(sim, iter, extraDeps)
}

func TestAddIterationRuns(t *testing.T) {
	c := TerabyteConfig(sizes26(), 4096)
	n := 4
	pl := PlaceTables(c.TableSizes, n)
	sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: n, Policy: gpusim.PrioritySpace})
	h, err := addIteration(c, sim, pl, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	// The iteration end barrier is last.
	if res.OpByID(h.End).End != res.Makespan {
		t.Fatal("iteration end != makespan")
	}
	// Stage chain per GPU is ordered.
	for g := 0; g < n; g++ {
		for s := 1; s < NumStages; s++ {
			prev := res.OpByID(h.StageOps[g][s-1])
			cur := res.OpByID(h.StageOps[g][s])
			if cur.Start < prev.End-1e-6 {
				t.Fatalf("gpu %d stage %d starts before stage %d ends", g, s, s-1)
			}
		}
	}
	// Collectives wait for all GPUs: a2a on GPU 0 cannot start before the
	// slowest lookup.
	slowest := 0.0
	for g := 0; g < n; g++ {
		if e := res.OpByID(h.StageOps[g][0]).End; e > slowest {
			slowest = e
		}
	}
	for g := 0; g < n; g++ {
		if res.OpByID(h.StageOps[g][1]).Start < slowest-1e-6 {
			t.Fatal("a2a started before all lookups finished")
		}
	}
	// The simulated iteration should be close to the analytic solo
	// estimate (no contention in a bare iteration).
	want := c.IterationSoloLatency(pl, sim.Config().LinkGBs)
	if res.Makespan < want*0.8 || res.Makespan > want*1.4 {
		t.Fatalf("makespan %f vs solo estimate %f", res.Makespan, want)
	}
}

func TestAddIterationExtraDeps(t *testing.T) {
	c := smallConfig(4, 32)
	pl := PlaceTables(c.TableSizes, 2)
	sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 2})
	gate := sim.AddKernel(0, gpusim.Kernel{Name: "gate", Work: 500, LaunchOverhead: -1, Demand: gpusim.Demand{SM: 0.1}})
	h, err := addIteration(c, sim, pl, 0, [][]gpusim.OpID{{gate}, nil})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.OpByID(h.StageOps[0][0]).Start < 500-1e-6 {
		t.Fatal("extra dep ignored on GPU 0")
	}
	if res.OpByID(h.StageOps[1][0]).Start > 1e-6 {
		t.Fatal("GPU 1 should start immediately")
	}
}

func TestAddIterationRejectsMismatch(t *testing.T) {
	c := smallConfig(4, 32)
	pl := PlaceTables(c.TableSizes, 2)
	sim := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 3})
	if _, err := addIteration(c, sim, pl, 0, nil); err == nil {
		t.Fatal("GPU-count mismatch accepted")
	}
	bad := c
	bad.BatchSize = 0
	sim2 := gpusim.NewSim(gpusim.ClusterConfig{NumGPUs: 2})
	if _, err := addIteration(bad, sim2, pl, 0, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestEmbeddingTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := NewEmbeddingTable(10, 4, rng)
	col := tensor.SparseFromLists("c", [][]int64{{1, 1}, {2}, {}})
	out := nn.NewMatrix(3, 4)
	tb.LookupPooled(col, out)
	// Row 0 pooled twice row 1's embedding.
	for j := 0; j < 4; j++ {
		if math.Abs(float64(out.At(0, j)-2*tb.W[1*4+j])) > 1e-6 {
			t.Fatal("sum pooling wrong")
		}
		if out.At(2, j) != 0 {
			t.Fatal("empty row should pool to zero")
		}
	}
	// Negative and overflowing ids fold into range.
	col2 := tensor.SparseFromLists("c", [][]int64{{-3}, {13}})
	out2 := nn.NewMatrix(2, 4)
	tb.LookupPooled(col2, out2)
	grad := nn.NewMatrix(3, 4)
	for j := 0; j < 4; j++ {
		grad.Set(0, j, 1)
	}
	tb.AccumulateGrad(col, grad)
	if len(tb.grads) != 2 {
		t.Fatalf("pending rows = %d, want 2 (rows 1 and 2 touched)", len(tb.grads))
	}
	before := tb.W[1*4]
	tb.Step(0.5)
	// Row 1 touched twice with grad 1 -> delta = -0.5*2.
	if math.Abs(float64(tb.W[1*4]-(before-1))) > 1e-5 {
		t.Fatalf("sparse update wrong: %f -> %f", before, tb.W[1*4])
	}
	if len(tb.grads) != 0 {
		t.Fatal("grads not cleared")
	}
}

func TestEmbeddingTableCaps(t *testing.T) {
	tb := NewEmbeddingTable(1<<30, 2, rand.New(rand.NewSource(1)))
	if tb.Rows != MaxFunctionalRows {
		t.Fatalf("rows = %d, want cap %d", tb.Rows, MaxFunctionalRows)
	}
}

func TestInteractionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, dim, f = 2, 3, 3
	vecs := make([]*nn.Matrix, f)
	for i := range vecs {
		vecs[i] = nn.NewMatrix(batch, dim)
		for j := range vecs[i].Data {
			vecs[i].Data[j] = rng.Float32()*2 - 1
		}
	}
	var x interaction
	out := x.Forward(vecs)
	wantCols := dim + f*(f-1)/2
	if out.Cols != wantCols {
		t.Fatalf("interaction out cols = %d, want %d", out.Cols, wantCols)
	}
	// Loss = sum of squares of output.
	loss := func() float64 {
		var xx interaction
		o := xx.Forward(vecs)
		var s float64
		for _, v := range o.Data {
			s += float64(v) * float64(v)
		}
		return s
	}
	grad := nn.NewMatrix(batch, out.Cols)
	for i := range out.Data {
		grad.Data[i] = 2 * out.Data[i]
	}
	dvecs := x.Backward(grad)
	for vi := range vecs {
		for idx := 0; idx < len(vecs[vi].Data); idx += 2 {
			orig := vecs[vi].Data[idx]
			const h = 1e-3
			vecs[vi].Data[idx] = orig + h
			lp := loss()
			vecs[vi].Data[idx] = orig - h
			lm := loss()
			vecs[vi].Data[idx] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-float64(dvecs[vi].Data[idx])) > 1e-2*(1+math.Abs(num)) {
				t.Fatalf("interaction grad v%d[%d]: numeric %f analytic %f", vi, idx, num, dvecs[vi].Data[idx])
			}
		}
	}
}

func randomInputs(cfg Config, globalB int, seed int64) (*nn.Matrix, []*tensor.Sparse, []float32) {
	rng := rand.New(rand.NewSource(seed))
	dense := nn.NewMatrix(globalB, cfg.NumDense)
	for i := range dense.Data {
		dense.Data[i] = rng.Float32()
	}
	sparse := make([]*tensor.Sparse, cfg.NumTables())
	for tb := range sparse {
		lists := make([][]int64, globalB)
		for i := range lists {
			l := 1 + rng.Intn(3)
			lists[i] = make([]int64, l)
			for j := range lists[i] {
				lists[i][j] = rng.Int63n(cfg.TableSizes[tb])
			}
		}
		sparse[tb] = tensor.SparseFromLists("t", lists)
	}
	labels := make([]float32, globalB)
	for i := range labels {
		// Learnable: label correlates with dense feature 0 and table 0's
		// first id parity.
		p := float64(dense.At(i, 0))*0.5 + 0.1
		if sparse[0].Row(i)[0]%2 == 0 {
			p += 0.3
		}
		if rng.Float64() < p {
			labels[i] = 1
		}
	}
	return dense, sparse, labels
}

func TestHybridTrainerLearnsAndStaysInSync(t *testing.T) {
	cfg := smallConfig(6, 16)
	pl := PlaceTables(cfg.TableSizes, 4)
	tr, err := NewHybridTrainer(cfg, pl, 5)
	if err != nil {
		t.Fatal(err)
	}
	dense, sparse, labels := randomInputs(cfg, 64, 13)
	var first, last float32
	for it := 0; it < 200; it++ {
		loss, err := tr.Step(dense, sparse, labels, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first-0.05 {
		t.Fatalf("hybrid trainer did not learn: first %f last %f", first, last)
	}
	if !tr.ReplicasInSync() {
		t.Fatal("replicas diverged despite all-reduce")
	}
}

func TestHybridTrainerMatchesSingleWorker(t *testing.T) {
	// With identical seeds, a 1-worker hybrid trainer and a 2-worker one
	// see the same data; losses should track closely (not exactly —
	// per-shard BCE normalization is equivalent after averaging).
	cfg := smallConfig(4, 16)
	tr1, err := NewHybridTrainer(cfg, PlaceTables(cfg.TableSizes, 1), 9)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := NewHybridTrainer(cfg, PlaceTables(cfg.TableSizes, 2), 9)
	if err != nil {
		t.Fatal(err)
	}
	dense, sparse, labels := randomInputs(cfg, 32, 17)
	for it := 0; it < 10; it++ {
		l1, err := tr1.Step(dense, sparse, labels, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := tr2.Step(dense, sparse, labels, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(l1-l2)) > 0.05*(1+math.Abs(float64(l1))) {
			t.Fatalf("iter %d: 1-worker loss %f vs 2-worker %f", it, l1, l2)
		}
	}
}

func TestHybridTrainerErrors(t *testing.T) {
	cfg := smallConfig(4, 16)
	pl := PlaceTables(cfg.TableSizes, 2)
	tr, err := NewHybridTrainer(cfg, pl, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense, sparse, labels := randomInputs(cfg, 32, 1)
	if _, err := tr.Step(nn.NewMatrix(33, cfg.NumDense), sparse, labels, 0.1); err == nil {
		t.Fatal("indivisible batch accepted")
	}
	if _, err := tr.Step(nn.NewMatrix(32, cfg.NumDense+1), sparse, labels, 0.1); err == nil {
		t.Fatal("wrong dense width accepted")
	}
	if _, err := tr.Step(dense, sparse[:2], labels, 0.1); err == nil {
		t.Fatal("missing tables accepted")
	}
	if _, err := tr.Step(dense, sparse, labels[:5], 0.1); err == nil {
		t.Fatal("short labels accepted")
	}
	short := make([]*tensor.Sparse, len(sparse))
	copy(short, sparse)
	short[1] = tensor.NewSparse("s", 3)
	if _, err := tr.Step(dense, short, labels, 0.1); err == nil {
		t.Fatal("short column accepted")
	}
	// Placement/table mismatch at construction.
	if _, err := NewHybridTrainer(cfg, Placement{NumGPUs: 2, TableGPU: []int{0}}, 1); err == nil {
		t.Fatal("short placement accepted")
	}
}

// Property: PlaceTables always yields a valid partition with max/min
// byte imbalance no worse than the largest single table.
func TestPlaceTablesProperty(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		g := int(gRaw%8) + 1
		sizes := make([]int64, n)
		var largest int64
		for i := range sizes {
			sizes[i] = 1 + rng.Int63n(1_000_000)
			if sizes[i] > largest {
				largest = sizes[i]
			}
		}
		pl := PlaceTables(sizes, g)
		if pl.Validate() != nil {
			return false
		}
		load := make([]int64, g)
		for tb, gg := range pl.TableGPU {
			load[gg] += sizes[tb]
		}
		var mx, mn int64 = 0, 1 << 62
		for _, l := range load {
			if l > mx {
				mx = l
			}
			if l < mn {
				mn = l
			}
		}
		return mx-mn <= largest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
