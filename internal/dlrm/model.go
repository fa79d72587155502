package dlrm

import (
	"fmt"
	"math/rand"

	"rap/internal/nn"
	"rap/internal/tensor"
)

// MaxFunctionalRows caps the materialized row count of functional
// embedding tables. Industrial table sizes (hundreds of millions of
// rows) only matter for placement and traffic modelling — the functional
// trainer validates learning dynamics, so ids are folded modulo the cap.
const MaxFunctionalRows = 1 << 16

// EmbeddingTable is one model-parallel embedding table with sum pooling
// and sparse SGD updates.
type EmbeddingTable struct {
	Rows, Dim int
	W         []float32
	grads     map[int][]float32
}

// NewEmbeddingTable allocates a table with small random init.
func NewEmbeddingTable(rows, dim int, rng *rand.Rand) *EmbeddingTable {
	if rows > MaxFunctionalRows {
		rows = MaxFunctionalRows
	}
	if rows < 1 {
		rows = 1
	}
	t := &EmbeddingTable{Rows: rows, Dim: dim, W: make([]float32, rows*dim), grads: map[int][]float32{}}
	for i := range t.W {
		t.W[i] = (rng.Float32()*2 - 1) * 0.05
	}
	return t
}

func (t *EmbeddingTable) row(id int64) []float32 {
	r := int(((id % int64(t.Rows)) + int64(t.Rows)) % int64(t.Rows))
	return t.W[r*t.Dim : (r+1)*t.Dim]
}

// LookupPooled sum-pools the embedding rows of each sample's ids into
// out (len(col) × Dim).
func (t *EmbeddingTable) LookupPooled(col *tensor.Sparse, out *nn.Matrix) {
	if out.Rows != col.Len() || out.Cols != t.Dim {
		panic(fmt.Sprintf("dlrm: lookup output %d×%d for %d samples dim %d", out.Rows, out.Cols, col.Len(), t.Dim))
	}
	for i := 0; i < col.Len(); i++ {
		dst := out.Row(i)
		for j := range dst {
			dst[j] = 0
		}
		for _, id := range col.Row(i) {
			src := t.row(id)
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
}

// AccumulateGrad adds grad (one Dim-vector per sample) into the
// gradients of every row each sample touched.
func (t *EmbeddingTable) AccumulateGrad(col *tensor.Sparse, grad *nn.Matrix) {
	for i := 0; i < col.Len(); i++ {
		g := grad.Row(i)
		for _, id := range col.Row(i) {
			r := int(((id % int64(t.Rows)) + int64(t.Rows)) % int64(t.Rows))
			acc, ok := t.grads[r]
			if !ok {
				acc = make([]float32, t.Dim)
				t.grads[r] = acc
			}
			for j := range acc {
				acc[j] += g[j]
			}
		}
	}
}

// Step applies accumulated sparse gradients with SGD and clears them.
func (t *EmbeddingTable) Step(lr float32) {
	for r, g := range t.grads {
		row := t.W[r*t.Dim : (r+1)*t.Dim]
		for j := range row {
			row[j] -= lr * g[j]
		}
		delete(t.grads, r)
	}
}

// interaction computes DLRM's pairwise-dot feature interaction and its
// backward pass. vectors[0] is the bottom-MLP output; vectors[1:] are
// the pooled table lookups. All are batch×dim.
type interaction struct {
	vectors []*nn.Matrix
	dim     int
}

// Forward returns batch × (dim + F(F-1)/2): the bottom output
// concatenated with the upper-triangle pairwise dot products.
func (x *interaction) Forward(vectors []*nn.Matrix) *nn.Matrix {
	x.vectors = vectors
	x.dim = vectors[0].Cols
	f := len(vectors)
	batch := vectors[0].Rows
	out := nn.NewMatrix(batch, x.dim+f*(f-1)/2)
	for b := 0; b < batch; b++ {
		dst := out.Row(b)
		copy(dst, vectors[0].Row(b))
		k := x.dim
		for i := 0; i < f; i++ {
			vi := vectors[i].Row(b)
			for j := i + 1; j < f; j++ {
				vj := vectors[j].Row(b)
				var dot float32
				for d := 0; d < x.dim; d++ {
					dot += vi[d] * vj[d]
				}
				dst[k] = dot
				k++
			}
		}
	}
	return out
}

// Backward maps dL/doutput back to per-vector gradients.
func (x *interaction) Backward(grad *nn.Matrix) []*nn.Matrix {
	f := len(x.vectors)
	batch := grad.Rows
	out := make([]*nn.Matrix, f)
	for i := range out {
		out[i] = nn.NewMatrix(batch, x.dim)
	}
	for b := 0; b < batch; b++ {
		g := grad.Row(b)
		copy(out[0].Row(b), g[:x.dim])
		k := x.dim
		for i := 0; i < f; i++ {
			vi := x.vectors[i].Row(b)
			gi := out[i].Row(b)
			for j := i + 1; j < f; j++ {
				vj := x.vectors[j].Row(b)
				gj := out[j].Row(b)
				gd := g[k]
				k++
				// Skipping an exact zero is a pure sparsity optimization.
				if gd == 0 {
					continue
				}
				for d := 0; d < x.dim; d++ {
					gi[d] += gd * vj[d]
					gj[d] += gd * vi[d]
				}
			}
		}
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
