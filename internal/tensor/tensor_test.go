package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense("age", 4)
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	d.Values[2] = 7
	c := d.Clone()
	c.Values[2] = 9
	if d.Values[2] != 7 {
		t.Fatalf("clone aliases parent: %v", d.Values)
	}
	if d.HasNaN() {
		t.Fatal("unexpected NaN")
	}
	d.Values[0] = float32(math.NaN())
	if !d.HasNaN() {
		t.Fatal("HasNaN missed NaN")
	}
}

func TestSparseFromLists(t *testing.T) {
	lists := [][]int64{{1, 2, 3}, {}, {9}}
	s := SparseFromLists("cat", lists)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.NNZ() != 4 {
		t.Fatalf("Len=%d NNZ=%d, want 3,4", s.Len(), s.NNZ())
	}
	if got := s.Row(0); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Row(0) = %v", got)
	}
	for i := range lists {
		if got := s.Row(i); !slices.Equal(got, lists[i]) {
			t.Fatalf("round trip row %d: %v vs %v", i, got, lists[i])
		}
	}
}

func TestSparseValidateCatchesCorruption(t *testing.T) {
	s := SparseFromLists("c", [][]int64{{1}, {2, 3}})
	s.Offsets[1] = 5
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted non-monotone offsets")
	}
	s = SparseFromLists("c", [][]int64{{1}})
	s.Values = append(s.Values, 7)
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted dangling values")
	}
	s = &Sparse{Name: "c"}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted empty offsets")
	}
	s = SparseFromLists("c", [][]int64{{1}})
	s.Offsets[0] = 1
	s.Offsets[1] = 0
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted offsets[0] != 0")
	}
}

func TestBatchAddAndLookup(t *testing.T) {
	b := NewBatch(2)
	if err := b.AddDense(NewDense("d0", 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSparse(NewSparse("s0", 2)); err != nil {
		t.Fatal(err)
	}
	if b.DenseByName("d0") == nil || b.SparseByName("s0") == nil {
		t.Fatal("lookup failed")
	}
	if b.DenseByName("nope") != nil || b.SparseByName("nope") != nil {
		t.Fatal("lookup invented a column")
	}
	if err := b.AddDense(NewDense("d0", 2)); err == nil {
		t.Fatal("duplicate dense accepted")
	}
	if err := b.AddSparse(NewSparse("s0", 2)); err == nil {
		t.Fatal("duplicate sparse accepted")
	}
	if err := b.AddDense(NewDense("d1", 3)); err == nil {
		t.Fatal("wrong-length dense accepted")
	}
	if err := b.AddSparse(NewSparse("s1", 9)); err == nil {
		t.Fatal("wrong-length sparse accepted")
	}
}

func TestBatchReplace(t *testing.T) {
	b := NewBatch(2)
	d := NewDense("d0", 2)
	d.Values[0] = 1
	if err := b.AddDense(d); err != nil {
		t.Fatal(err)
	}
	repl := NewDense("d0", 2)
	repl.Values[0] = 5
	if err := b.ReplaceDense(repl); err != nil {
		t.Fatal(err)
	}
	if b.DenseByName("d0").Values[0] != 5 {
		t.Fatal("replace had no effect")
	}
	if err := b.ReplaceDense(NewDense("missing", 2)); err == nil {
		t.Fatal("replace of missing column accepted")
	}
	if err := b.ReplaceDense(NewDense("d0", 3)); err == nil {
		t.Fatal("replace with wrong length accepted")
	}
	s := NewSparse("s0", 2)
	if err := b.AddSparse(s); err != nil {
		t.Fatal(err)
	}
	if err := b.ReplaceSparse(SparseFromLists("s0", [][]int64{{1}, {2}})); err != nil {
		t.Fatal(err)
	}
	if b.SparseByName("s0").NNZ() != 2 {
		t.Fatal("sparse replace had no effect")
	}
	if err := b.ReplaceSparse(NewSparse("missing", 2)); err == nil {
		t.Fatal("replace of missing sparse accepted")
	}
	if err := b.ReplaceSparse(NewSparse("s0", 4)); err == nil {
		t.Fatal("replace with wrong sparse length accepted")
	}
}

func TestBatchAddOrReplace(t *testing.T) {
	b := NewBatch(1)
	if err := b.AddOrReplaceDense(NewDense("d", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddOrReplaceDense(NewDense("d", 1)); err != nil {
		t.Fatal(err)
	}
	if len(b.Dense) != 1 {
		t.Fatalf("AddOrReplaceDense duplicated: %d columns", len(b.Dense))
	}
	if err := b.AddOrReplaceSparse(NewSparse("s", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddOrReplaceSparse(NewSparse("s", 1)); err != nil {
		t.Fatal(err)
	}
	if len(b.Sparse) != 1 {
		t.Fatalf("AddOrReplaceSparse duplicated: %d columns", len(b.Sparse))
	}
}

func TestBatchValidate(t *testing.T) {
	b := NewBatch(2)
	if err := b.AddDense(NewDense("d", 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	b.Labels = []float32{1}
	if err := b.Validate(); err == nil {
		t.Fatal("short labels accepted")
	}
	b.Labels = nil
	b.Dense[0].Values = b.Dense[0].Values[:1]
	if err := b.Validate(); err == nil {
		t.Fatal("short dense accepted")
	}
}

func TestBatchValidateSparseMismatch(t *testing.T) {
	b := NewBatch(2)
	s := NewSparse("s", 2)
	if err := b.AddSparse(s); err != nil {
		t.Fatal(err)
	}
	s.Offsets = s.Offsets[:2] // now length 1
	if err := b.Validate(); err == nil {
		t.Fatal("shrunk sparse accepted")
	}
	s.Offsets = []int32{0, 1, 1}
	if err := b.Validate(); err == nil {
		t.Fatal("dangling offsets accepted")
	}
}

// Property: SparseFromLists round-trips arbitrary jagged input through
// Row.
func TestSparseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		lists := make([][]int64, n)
		for i := range lists {
			m := rng.Intn(8)
			lists[i] = make([]int64, m)
			for j := range lists[i] {
				lists[i][j] = rng.Int63n(1000)
			}
		}
		s := SparseFromLists("p", lists)
		if s.Validate() != nil || s.Len() != n {
			return false
		}
		for i := range lists {
			if !slices.Equal(s.Row(i), lists[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NNZ equals the sum of row lengths.
func TestSparseNNZProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		lists := make([][]int64, n)
		for i := range lists {
			lists[i] = make([]int64, rng.Intn(5))
		}
		s := SparseFromLists("p", lists)
		sum := 0
		for i := 0; i < s.Len(); i++ {
			sum += len(s.Row(i))
		}
		return sum == s.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShallowCopy(t *testing.T) {
	b := NewBatch(2)
	d := NewDense("d", 2)
	d.Values[0] = 7
	if err := b.AddDense(d); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSparse(SparseFromLists("s", [][]int64{{1}, {2}})); err != nil {
		t.Fatal(err)
	}
	b.Labels = []float32{0, 1}

	v := b.ShallowCopy()
	// Columns are shared...
	if v.DenseByName("d") != b.DenseByName("d") {
		t.Fatal("shallow copy cloned column data")
	}
	if v.Labels[1] != 1 {
		t.Fatal("labels not shared")
	}
	// ...but the tables are independent: adding to the view must not
	// affect the base.
	if err := v.AddDense(NewDense("extra", 2)); err != nil {
		t.Fatal(err)
	}
	if b.DenseByName("extra") != nil {
		t.Fatal("view mutation leaked into base")
	}
	// Replacing in the view leaves the base untouched.
	repl := NewDense("d", 2)
	repl.Values[0] = 99
	if err := v.ReplaceDense(repl); err != nil {
		t.Fatal(err)
	}
	if b.DenseByName("d").Values[0] != 7 {
		t.Fatal("view replace leaked into base")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseSlicePanicsOnBadRange(t *testing.T) {
	s := SparseFromLists("s", [][]int64{{1}, {2}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad slice range")
		}
	}()
	s.Slice(1, 5)
}

func TestSparseSlice(t *testing.T) {
	s := SparseFromLists("s", [][]int64{{1, 2}, {3}, {}, {4, 5, 6}})
	sub := s.Slice(1, 3)
	if sub.Len() != 2 || sub.NNZ() != 1 {
		t.Fatalf("slice shape: len=%d nnz=%d", sub.Len(), sub.NNZ())
	}
	if sub.Row(0)[0] != 3 || len(sub.Row(1)) != 0 {
		t.Fatalf("slice contents wrong: %v", sub.Values)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slice is a copy.
	sub.Values[0] = 99
	if s.Values[2] != 3 {
		t.Fatal("slice aliases parent")
	}
}
