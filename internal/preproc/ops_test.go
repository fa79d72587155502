package preproc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rap/internal/tensor"
)

func denseBatch(vals ...float32) *tensor.Batch {
	b := tensor.NewBatch(len(vals))
	d := tensor.NewDense("x", len(vals))
	copy(d.Values, vals)
	if err := b.AddDense(d); err != nil {
		panic(err)
	}
	return b
}

func sparseBatch(lists ...[]int64) *tensor.Batch {
	b := tensor.NewBatch(len(lists))
	if err := b.AddSparse(tensor.SparseFromLists("x", lists)); err != nil {
		panic(err)
	}
	return b
}

func TestFillNullDense(t *testing.T) {
	b := denseBatch(1, float32(math.NaN()), 3)
	op := NewFillNullDense("fn", "x", "y", -1)
	if err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.DenseByName("y")
	if y.Values[0] != 1 || y.Values[1] != -1 || y.Values[2] != 3 {
		t.Fatalf("FillNull dense = %v", y.Values)
	}
	if b.DenseByName("x").HasNaN() == false {
		t.Fatal("input mutated")
	}
}

func TestFillNullSparse(t *testing.T) {
	b := sparseBatch([]int64{5}, nil, []int64{7, 8})
	op := NewFillNullSparse("fn", "x", "y", 42)
	if err := op.Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	if got := y.Row(1); len(got) != 1 || got[0] != 42 {
		t.Fatalf("FillNull sparse empty row = %v", got)
	}
	if got := y.Row(2); len(got) != 2 || got[1] != 8 {
		t.Fatalf("FillNull sparse row 2 = %v", got)
	}
}

func TestCast(t *testing.T) {
	b := denseBatch(1.7, -2.3, float32(math.NaN()))
	if err := NewCast("c", "x", "y").Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.DenseByName("y")
	if y.Values[0] != 1 || y.Values[1] != -2 || y.Values[2] != 0 {
		t.Fatalf("Cast = %v", y.Values)
	}
}

func TestLogit(t *testing.T) {
	b := denseBatch(0, 1, 1000)
	if err := NewLogit("l", "x", "y", 1e-4).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.DenseByName("y")
	// x=0 -> p=eps -> big negative; x=1 -> p=0.5 -> 0; x large -> p→1-eps.
	if y.Values[0] >= 0 || math.Abs(float64(y.Values[1])) > 1e-5 || y.Values[2] <= 0 {
		t.Fatalf("Logit = %v", y.Values)
	}
	if y.HasNaN() {
		t.Fatal("Logit produced NaN")
	}
}

func TestBoxCox(t *testing.T) {
	b := denseBatch(4, 0, -3)
	if err := NewBoxCox("bc", "x", "y", 0.5).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.DenseByName("y")
	// (sqrt(4)-1)/0.5 = 2
	if math.Abs(float64(y.Values[0])-2) > 1e-5 {
		t.Fatalf("BoxCox(4) = %f", y.Values[0])
	}
	if y.HasNaN() {
		t.Fatal("BoxCox produced NaN on non-positive input")
	}
	// Default lambda.
	if NewBoxCox("bc2", "x", "z", 0).Lambda != 0.5 {
		t.Fatal("default lambda wrong")
	}
}

func TestOneHot(t *testing.T) {
	b := denseBatch(3.7, -12, float32(math.NaN()))
	if err := NewOneHot("oh", "x", "y", 10).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	if y.Len() != 3 || y.NNZ() != 3 {
		t.Fatalf("OneHot shape: len=%d nnz=%d", y.Len(), y.NNZ())
	}
	if y.Row(0)[0] != 3 || y.Row(1)[0] != 2 || y.Row(2)[0] != 0 {
		t.Fatalf("OneHot values = %v", y.Values)
	}
}

func TestSigridHash(t *testing.T) {
	b := sparseBatch([]int64{1, 2}, []int64{1})
	if err := NewSigridHash("sh", "x", "y", 1000).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	for _, v := range y.Values {
		if v < 0 || v >= 1000 {
			t.Fatalf("hash out of range: %d", v)
		}
	}
	// Deterministic: same id hashes the same everywhere.
	if y.Row(0)[0] != y.Row(1)[0] {
		t.Fatal("hash not deterministic")
	}
	if y.Row(0)[0] == 1 && y.Row(0)[1] == 2 {
		t.Fatal("hash appears to be identity")
	}
}

func TestFirstX(t *testing.T) {
	b := sparseBatch([]int64{1, 2, 3, 4}, []int64{9}, nil)
	if err := NewFirstX("fx", "x", "y", 2).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	if got := y.Row(0); len(got) != 2 || got[1] != 2 {
		t.Fatalf("FirstX row0 = %v", got)
	}
	if len(y.Row(1)) != 1 || len(y.Row(2)) != 0 {
		t.Fatal("FirstX shorter rows changed")
	}
}

func TestClamp(t *testing.T) {
	b := sparseBatch([]int64{-5, 3, 99})
	if err := NewClamp("cp", "x", "y", 0, 10).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	if y.Values[0] != 0 || y.Values[1] != 3 || y.Values[2] != 10 {
		t.Fatalf("Clamp = %v", y.Values)
	}
	// Reversed bounds are normalized.
	if c := NewClamp("cp2", "x", "z", 10, 0); c.Lo != 0 || c.Hi != 10 {
		t.Fatal("Clamp bounds not normalized")
	}
}

func TestBucketize(t *testing.T) {
	b := denseBatch(-1, 0.5, 10, 1000)
	if err := NewBucketize("bk", "x", "y", []float32{0, 1, 100}).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	want := []int64{0, 1, 2, 3}
	for i, w := range want {
		if y.Row(i)[0] != w {
			t.Fatalf("Bucketize row %d = %d, want %d", i, y.Row(i)[0], w)
		}
	}
	// Unsorted borders are sorted defensively.
	bk := NewBucketize("bk2", "x", "z", []float32{5, 1, 3})
	if bk.Borders[0] != 1 || bk.Borders[2] != 5 {
		t.Fatal("borders not sorted")
	}
}

func TestNGram(t *testing.T) {
	b := tensor.NewBatch(2)
	if err := b.AddSparse(tensor.SparseFromLists("a", [][]int64{{1, 2}, {7}})); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSparse(tensor.SparseFromLists("c", [][]int64{{3}, {}})); err != nil {
		t.Fatal(err)
	}
	ng := NewNGram("ng", []string{"a", "c"}, "y", 2, 500)
	if err := ng.Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	// Sample 0: concat [1 2 3] -> bigrams (1,2),(2,3) -> 2 grams.
	// Sample 1: concat [7] -> 0 grams.
	if len(y.Row(0)) != 2 || len(y.Row(1)) != 0 {
		t.Fatalf("NGram lens: %d,%d", len(y.Row(0)), len(y.Row(1)))
	}
	for _, v := range y.Values {
		if v < 0 || v >= 500 {
			t.Fatalf("ngram id out of range: %d", v)
		}
	}
}

func TestNGramOrderSensitivity(t *testing.T) {
	mk := func(lists [][]int64) int64 {
		b := tensor.NewBatch(1)
		if err := b.AddSparse(tensor.SparseFromLists("a", lists)); err != nil {
			t.Fatal(err)
		}
		if err := NewNGram("ng", []string{"a"}, "y", 2, 1_000_000).Apply(b); err != nil {
			t.Fatal(err)
		}
		return b.SparseByName("y").Values[0]
	}
	if mk([][]int64{{1, 2}}) == mk([][]int64{{2, 1}}) {
		t.Fatal("ngram hash ignores order")
	}
}

func TestMapID(t *testing.T) {
	b := sparseBatch([]int64{1, 2, 3})
	if err := NewMapID("mp", "x", "y", map[int64]int64{2: 99}).Apply(b); err != nil {
		t.Fatal(err)
	}
	y := b.SparseByName("y")
	if y.Values[0] != 1 || y.Values[1] != 99 || y.Values[2] != 3 {
		t.Fatalf("MapID = %v", y.Values)
	}
}

func TestOpsErrorOnMissingColumn(t *testing.T) {
	b := tensor.NewBatch(1)
	ops := []Op{
		NewFillNullDense("a", "nope", "o1", 0),
		NewFillNullSparse("b", "nope", "o2", 0),
		NewCast("c", "nope", "o3"),
		NewLogit("d", "nope", "o4", 0),
		NewBoxCox("e", "nope", "o5", 0.5),
		NewOneHot("f", "nope", "o6", 4),
		NewSigridHash("g", "nope", "o7", 4),
		NewFirstX("h", "nope", "o8", 2),
		NewClamp("i", "nope", "o9", 0, 1),
		NewBucketize("j", "nope", "o10", []float32{1}),
		NewNGram("k", []string{"nope"}, "o11", 2, 4),
		NewMapID("l", "nope", "o12", nil),
	}
	for _, op := range ops {
		if err := op.Apply(b); err == nil {
			t.Fatalf("%s accepted missing input", op.ID())
		}
	}
}

func TestOpTypeMetadata(t *testing.T) {
	if len(AllOpTypes()) != 11 {
		t.Fatalf("want 11 op types (Table 1), got %d", len(AllOpTypes()))
	}
	names := map[string]bool{}
	for _, ty := range AllOpTypes() {
		names[ty.String()] = true
	}
	for _, want := range []string{"Logit", "BoxCox", "Onehot", "SigridHash", "FirstX",
		"Clamp", "Bucketize", "Ngram", "Mapid", "FillNull", "Cast"} {
		if !names[want] {
			t.Fatalf("missing op type %s", want)
		}
	}
	if OpType(77).String() == "" {
		t.Fatal("unknown type name empty")
	}
}

// TestPredictorCategory checks Table 5's grouping over every defined
// operator type: NGram, OneHot, Bucketize and FirstX each get their own
// predictor, and the rest share "1D Ops".
func TestPredictorCategory(t *testing.T) {
	want := map[OpType]string{
		OpLogit:      "1D Ops",
		OpBoxCox:     "1D Ops",
		OpOneHot:     "Onehot",
		OpSigridHash: "1D Ops",
		OpFirstX:     "FirstX",
		OpClamp:      "1D Ops",
		OpBucketize:  "Bucketize",
		OpNGram:      "Ngram",
		OpMapID:      "1D Ops",
		OpFillNull:   "1D Ops",
		OpCast:       "1D Ops",
	}
	for _, ty := range AllOpTypes() {
		cat, ok := want[ty]
		if !ok {
			t.Fatalf("op type %v missing from the table", ty)
		}
		if got := ty.PredictorCategory(); got != cat {
			t.Errorf("%v.PredictorCategory() = %q, want %q", ty, got, cat)
		}
	}
}

func TestKernelSpecCostModel(t *testing.T) {
	small := KernelSpec{Name: "s", Type: OpSigridHash, Elements: 100}
	big := KernelSpec{Name: "b", Type: OpSigridHash, Elements: 4096 * 512}
	if small.Work() >= big.Work() {
		t.Fatal("work not monotone in elements")
	}
	if small.Warps() < 1 {
		t.Fatal("warps < 1")
	}
	// Demands grow with size and saturate at full occupancy.
	sd, bd := small.Demand(), big.Demand()
	if sd.SM >= bd.SM || bd.SM > 1+1e-9 {
		t.Fatalf("SM demand wrong: small %f big %f", sd.SM, bd.SM)
	}
	// NGram is the costliest op class (paper §3: feature generation ≫
	// normalization).
	ng := KernelSpec{Type: OpNGram, Elements: 1000}
	lg := KernelSpec{Type: OpLogit, Elements: 1000}
	if ng.Work() <= lg.Work() {
		t.Fatal("NGram should cost more than Logit")
	}
	if small.SoloLatency() <= small.Work() {
		t.Fatal("solo latency must include launch overhead")
	}
	k := big.Kernel()
	if k.Tag != "preproc" || k.Work != big.Work() || k.Warps != big.Warps() {
		t.Fatalf("Kernel lowering wrong: %+v", k)
	}
}

// TestKernelCostFormula checks the kernel cost model against its closed
// form with the constants spelled out: 2900 elements/µs of full-GPU
// throughput, a 1.5 µs kernel floor and 5 µs of launch overhead.
// Work = elements·costFactor·scale/(2900·occupancy) + 1.5, SaturatedWork
// drops the occupancy and the floor, SoloLatency adds the launch; the
// occupancy is checked on both sides of GPU saturation.
func TestKernelCostFormula(t *testing.T) {
	cases := []struct {
		name        string
		spec        KernelSpec
		occ, factor float64
		scale       float64
	}{
		// 131072 elements = 4096 warps: past the 1024 that saturate.
		{"saturated SigridHash", KernelSpec{Type: OpSigridHash, Elements: 131072}, 1, 2.2, 1},
		// 3200 elements = 100 warps of 1024.
		{"partial NGram, scale 2", KernelSpec{Type: OpNGram, Elements: 3200, ParamScale: 2}, 100.0 / 1024, 6.0, 2},
		{"negative scale reads as 1", KernelSpec{Type: OpLogit, Elements: 64000, ParamScale: -1}, 1, 1.2, 1},
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	for _, c := range cases {
		sat := c.spec.Elements * c.factor * c.scale / 2900
		work := sat/c.occ + 1.5
		if got := c.spec.Work(); !near(got, work) {
			t.Errorf("%s: Work %g, want %g", c.name, got, work)
		}
		if got := c.spec.SaturatedWork(); !near(got, sat) {
			t.Errorf("%s: SaturatedWork %g, want %g", c.name, got, sat)
		}
		if got := c.spec.SoloLatency(); !near(got, 5+work) {
			t.Errorf("%s: SoloLatency %g, want %g", c.name, got, 5+work)
		}
	}

	// Around the saturation boundary (1024 warps of 32 elements = 32768)
	// the occupancy is min(1, ceil(elements/32)/1024), and Demand is that
	// occupancy on SMs and 0.4 of it on memory bandwidth for Logit.
	for _, elems := range []float64{32736, 32767, 32767.5, 32768, 32768.5, 1e9} {
		spec := KernelSpec{Type: OpLogit, Elements: elems}
		occ := math.Min(1, math.Ceil(elems/32)/1024)
		work := elems*1.2/(2900*occ) + 1.5
		if got := spec.Work(); !near(got, work) {
			t.Errorf("%g elements: Work %g, want %g", elems, got, work)
		}
		if got := spec.SoloLatency(); !near(got, 5+work) {
			t.Errorf("%g elements: SoloLatency %g, want %g", elems, got, 5+work)
		}
		if got := spec.Demand(); got.SM != occ || got.MemBW != 0.4*occ {
			t.Errorf("%g elements: Demand %+v, want SM %g, MemBW %g", elems, got, occ, 0.4*occ)
		}
	}
}

func TestKernelSpecFuse(t *testing.T) {
	a := KernelSpec{Name: "a", Type: OpFillNull, Elements: 1000}
	b := KernelSpec{Name: "b", Type: OpFillNull, Elements: 3000}
	f := a.MustFuse(b)
	if f.Elements != 4000 || f.FusedCount != 2 {
		t.Fatalf("fused = %+v", f)
	}
	// Fusion saves one launch overhead.
	if f.SoloLatency() >= a.SoloLatency()+b.SoloLatency() {
		t.Fatal("fusion saved nothing")
	}
	// The fused kernel is bigger than either part (demand grows).
	if f.Demand().SM < a.Demand().SM {
		t.Fatal("fused demand shrank")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type fusion accepted")
		}
	}()
	a.MustFuse(KernelSpec{Type: OpLogit})
}

func TestKernelSpecFuseParamScale(t *testing.T) {
	a := KernelSpec{Name: "a", Type: OpNGram, Elements: 1000, ParamScale: 2}
	b := KernelSpec{Name: "b", Type: OpNGram, Elements: 1000, ParamScale: 1}
	f := a.MustFuse(b)
	if math.Abs(f.ParamScale-1.5) > 1e-9 {
		t.Fatalf("fused param scale = %f, want element-weighted 1.5", f.ParamScale)
	}
}

func TestKernelSpecShard(t *testing.T) {
	s := KernelSpec{Name: "k", Type: OpNGram, Elements: 10000, FusedCount: 4}
	a, b := s.Shard(0.25)
	if math.Abs(a.Elements+b.Elements-s.Elements) > 1e-9 {
		t.Fatal("shards lose elements")
	}
	if math.Abs(a.Elements-2500) > 1e-9 {
		t.Fatalf("shard fraction wrong: %f", a.Elements)
	}
	// Extreme fractions are clipped to keep both shards non-empty.
	a, b = s.Shard(0)
	if a.Elements <= 0 || b.Elements >= s.Elements {
		t.Fatal("shard clip failed")
	}
	a, b = s.Shard(5)
	if b.Elements <= 0 || a.Elements >= s.Elements {
		t.Fatal("upper shard clip failed")
	}
}

// Property: FirstX output rows never exceed X and are prefixes of input.
func TestFirstXProperty(t *testing.T) {
	f := func(seed int64, xRaw uint8) bool {
		x := int(xRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		lists := make([][]int64, 1+rng.Intn(20))
		for i := range lists {
			lists[i] = make([]int64, rng.Intn(15))
			for j := range lists[i] {
				lists[i][j] = rng.Int63n(100)
			}
		}
		b := sparseBatch(lists...)
		if NewFirstX("fx", "x", "y", x).Apply(b) != nil {
			return false
		}
		y := b.SparseByName("y")
		for i := range lists {
			row := y.Row(i)
			if len(row) > x {
				return false
			}
			for j := range row {
				if row[j] != lists[i][j] {
					return false
				}
			}
		}
		return y.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SigridHash always lands in [0, hashSize) and equal ids map to
// equal hashes.
func TestSigridHashProperty(t *testing.T) {
	f := func(id int64, sizeRaw uint16) bool {
		size := int64(sizeRaw%5000) + 2
		h1 := HashID(id, size)
		h2 := HashID(id, size)
		return h1 == h2 && h1 >= 0 && h1 < size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: fusing preserves total elements and monotonically reduces
// total solo latency versus running separately.
func TestFusionSavesLaunchOverheadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := AllOpTypes()[rng.Intn(11)]
		n := 2 + rng.Intn(6)
		var specs []KernelSpec
		sum := 0.0
		sep := 0.0
		for i := 0; i < n; i++ {
			s := KernelSpec{Name: "k", Type: ty, Elements: 10 + rng.Float64()*5000}
			specs = append(specs, s)
			sum += s.Elements
			sep += s.SoloLatency()
		}
		fused := specs[0]
		for _, s := range specs[1:] {
			fused = fused.MustFuse(s)
		}
		return math.Abs(fused.Elements-sum) < 1e-6 &&
			fused.SoloLatency() < sep &&
			fused.FusedCount == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
