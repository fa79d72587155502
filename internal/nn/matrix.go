// Package nn is a small float32 neural-network library: dense matrices,
// linear layers, ReLU activations, binary-cross-entropy loss and
// plain SGD. It provides the real training math behind internal/dlrm so
// that the reproduction trains an actual model (loss measurably
// decreases) rather than only simulating timing.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			// Skipping an exact zero is a pure sparsity optimization.
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulATB returns aᵀ×b (used for weight gradients).
func MatMulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmulATB shape mismatch %d×%d ᵀ· %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i, av := range arow {
			// Skipping an exact zero is a pure sparsity optimization.
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulABT returns a×bᵀ (used for input gradients).
func MatMulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmulABT shape mismatch %d×%d · %d×%d ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for k := range arow {
				s += arow[k] * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// XavierInit fills m with Glorot-uniform values using rng.
func XavierInit(m *Matrix, rng *rand.Rand) {
	limit := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
}
