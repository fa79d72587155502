package data

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rap/internal/tensor"
)

func TestGeneratorShapes(t *testing.T) {
	g := NewGenerator(GenConfig{Seed: 1})
	b := g.NextBatch(128)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Dense) != 13 || len(b.Sparse) != 26 {
		t.Fatalf("got %d dense, %d sparse", len(b.Dense), len(b.Sparse))
	}
	if b.Samples != 128 || len(b.Labels) != 128 {
		t.Fatalf("samples %d labels %d", b.Samples, len(b.Labels))
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(GenConfig{Seed: 7}).NextBatch(64)
	b := NewGenerator(GenConfig{Seed: 7}).NextBatch(64)
	for i := range a.Dense {
		for j, va := range a.Dense[i].Values {
			if math.Float32bits(va) != math.Float32bits(b.Dense[i].Values[j]) {
				t.Fatal("nondeterministic dense values")
			}
		}
	}
	for i := range a.Sparse {
		av, bv := a.Sparse[i].Values, b.Sparse[i].Values
		if len(av) != len(bv) {
			t.Fatal("nondeterministic sparse lengths")
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatal("nondeterministic sparse ids")
			}
		}
	}
	c := NewGenerator(GenConfig{Seed: 8}).NextBatch(64)
	same := true
	for i := range a.Dense[0].Values {
		va, vc := a.Dense[0].Values[i], c.Dense[0].Values[i]
		if va != vc && !(math.IsNaN(float64(va)) && math.IsNaN(float64(vc))) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratorIdsWithinHashSize(t *testing.T) {
	cfg := GenConfig{NumSparse: 4, HashSizes: []int64{10, 100, 1000, 50}, Seed: 3}
	g := NewGenerator(cfg)
	b := g.NextBatch(500)
	for f, s := range b.Sparse {
		limit := cfg.HashSize(f)
		for _, v := range s.Values {
			if v < 0 || v >= limit {
				t.Fatalf("feature %d id %d out of [0,%d)", f, v, limit)
			}
		}
	}
}

func TestGeneratorNaNRate(t *testing.T) {
	g := NewGenerator(GenConfig{NaNRate: 0.5, Seed: 2})
	b := g.NextBatch(2000)
	nan := 0
	for _, v := range b.Dense[0].Values {
		if math.IsNaN(float64(v)) {
			nan++
		}
	}
	frac := float64(nan) / 2000
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("NaN fraction %f, want ~0.5", frac)
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	g := NewGenerator(GenConfig{NumSparse: 1, HashSizes: []int64{100000}, Seed: 5})
	b := g.NextBatch(3000)
	small := 0
	for _, v := range b.Sparse[0].Values {
		if v < 10 {
			small++
		}
	}
	if frac := float64(small) / float64(len(b.Sparse[0].Values)); frac < 0.3 {
		t.Fatalf("Zipf head mass %f, want heavy head", frac)
	}
}

func TestFeatureLenScaleSkews(t *testing.T) {
	g := NewGenerator(GenConfig{NumSparse: 2, AvgListLen: 3, FeatureLenScale: []float64{1, 8}, Seed: 4})
	b := g.NextBatch(1000)
	if b.Sparse[1].NNZ() < 3*b.Sparse[0].NNZ() {
		t.Fatalf("len scale not applied: %d vs %d", b.Sparse[0].NNZ(), b.Sparse[1].NNZ())
	}
}

func TestTableConfigs(t *testing.T) {
	k := KaggleGen(1)
	tb := TerabyteGen(1)
	sum := func(xs []int64) int64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	ks, ts := sum(k.HashSizes), sum(tb.HashSizes)
	if math.Abs(float64(ks)-33_700_000) > 0.01*33_700_000 {
		t.Fatalf("kaggle total hash %d", ks)
	}
	if math.Abs(float64(ts)-177_900_000) > 0.01*177_900_000 {
		t.Fatalf("terabyte total hash %d", ts)
	}
	if len(k.HashSizes) != 26 || len(tb.HashSizes) != 26 {
		t.Fatal("want 26 tables")
	}
	if k.HashSizes[0] <= k.HashSizes[25] {
		t.Fatal("want skewed table sizes")
	}
}

func TestHashSizeExtension(t *testing.T) {
	cfg := GenConfig{NumSparse: 5, HashSizes: []int64{10, 20}}
	if cfg.HashSize(0) != 10 || cfg.HashSize(1) != 20 || cfg.HashSize(4) != 20 {
		t.Fatal("HashSize extension wrong")
	}
	var empty GenConfig
	if empty.HashSize(3) != 100000 {
		t.Fatal("default hash size wrong")
	}
}

// denseNames returns the canonical dense column names.
func denseNames(g *Generator) []string {
	out := make([]string, g.cfg.NumDense)
	for i := range out {
		out[i] = DenseName(i)
	}
	return out
}

// sparseNames returns the canonical sparse column names.
func sparseNames(g *Generator) []string {
	out := make([]string, g.cfg.NumSparse)
	for i := range out {
		out[i] = SparseName(i)
	}
	return out
}

func TestNames(t *testing.T) {
	g := NewGenerator(GenConfig{NumDense: 2, NumSparse: 3})
	if got := denseNames(g); len(got) != 2 || got[1] != "int_1" {
		t.Fatalf("denseNames = %v", got)
	}
	if got := sparseNames(g); len(got) != 3 || got[2] != "cat_2" {
		t.Fatalf("sparseNames = %v", got)
	}
}

func TestRapcolRoundTrip(t *testing.T) {
	g := NewGenerator(GenConfig{NumDense: 3, NumSparse: 4, Seed: 9})
	batches := []*tensor.Batch{g.NextBatch(17), g.NextBatch(31)}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, b := range batches {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	for bi, want := range batches {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		if got.Samples != want.Samples {
			t.Fatalf("batch %d samples %d != %d", bi, got.Samples, want.Samples)
		}
		for i, d := range want.Dense {
			gd := got.DenseByName(d.Name)
			if gd == nil {
				t.Fatalf("missing dense %q", d.Name)
			}
			for j := range d.Values {
				a, b := d.Values[j], gd.Values[j]
				if a != b && !(math.IsNaN(float64(a)) && math.IsNaN(float64(b))) {
					t.Fatalf("dense %d[%d]: %f != %f", i, j, a, b)
				}
			}
		}
		for i, s := range want.Sparse {
			gs := got.SparseByName(s.Name)
			if gs == nil {
				t.Fatalf("missing sparse %q", s.Name)
			}
			if len(gs.Values) != len(s.Values) {
				t.Fatalf("sparse %d nnz %d != %d", i, len(gs.Values), len(s.Values))
			}
			for j := range s.Values {
				if gs.Values[j] != s.Values[j] {
					t.Fatalf("sparse %d value[%d] mismatch", i, j)
				}
			}
			for j := range s.Offsets {
				if gs.Offsets[j] != s.Offsets[j] {
					t.Fatalf("sparse %d offset[%d] mismatch", i, j)
				}
			}
		}
		for j := range want.Labels {
			if got.Labels[j] != want.Labels[j] {
				t.Fatalf("label[%d] mismatch", j)
			}
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRapcolNegativeIDs(t *testing.T) {
	b := tensor.NewBatch(2)
	if err := b.AddSparse(tensor.SparseFromLists("s", [][]int64{{-5, 3}, {-1}})); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.SparseByName("s").Values[0] != -5 {
		t.Fatal("negative id corrupted")
	}
}

func TestRapcolRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")).Next(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRapcolRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(rapcolMagic)
	buf.Write([]byte{99, 0})
	if _, err := NewReader(&buf).Next(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestRapcolRejectsTruncated(t *testing.T) {
	g := NewGenerator(GenConfig{NumDense: 1, NumSparse: 1, Seed: 1})
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(g.NextBatch(50)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := NewReader(bytes.NewReader(trunc)).Next(); err == nil {
		t.Fatal("truncated container accepted")
	}
}

func TestRapcolRejectsInvalidBatch(t *testing.T) {
	b := tensor.NewBatch(2)
	b.Labels = []float32{1} // wrong length
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteBatch(b); err == nil {
		t.Fatal("invalid batch accepted")
	}
}

func TestRapcolEmptyReader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")).Next(); err == nil {
		t.Fatal("empty input accepted")
	}
}

// Property: any generated batch round-trips through rapcol bit-exactly
// (modulo NaN identity).
func TestRapcolRoundTripProperty(t *testing.T) {
	f := func(seed int64, samples uint8) bool {
		n := int(samples%64) + 1
		g := NewGenerator(GenConfig{NumDense: 2, NumSparse: 2, Seed: seed})
		want := g.NextBatch(n)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.WriteBatch(want) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).Next()
		if err != nil || got.Samples != n {
			return false
		}
		for i := range want.Sparse {
			a, b := want.Sparse[i], got.Sparse[i]
			if a.NNZ() != b.NNZ() {
				return false
			}
			for j := range a.Values {
				if a.Values[j] != b.Values[j] {
					return false
				}
			}
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
