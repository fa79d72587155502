package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one differentiable stage of an MLP.
type Layer interface {
	// Forward consumes the layer input (batch × in) and returns the
	// output (batch × out), caching whatever Backward needs.
	Forward(x *Matrix) *Matrix
	// Backward consumes dL/doutput and returns dL/dinput, accumulating
	// parameter gradients.
	Backward(grad *Matrix) *Matrix
	// Step applies one SGD update with the given learning rate and
	// clears accumulated gradients.
	Step(lr float32)
	// ParamCount reports the number of trainable parameters.
	ParamCount() int
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	In, Out int
	W       *Matrix // In × Out
	B       []float32
	dW      *Matrix
	dB      []float32
	x       *Matrix // cached input
}

// NewLinear creates a Glorot-initialized linear layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:  NewMatrix(in, out),
		B:  make([]float32, out),
		dW: NewMatrix(in, out),
		dB: make([]float32, out),
	}
	XavierInit(l.W, rng)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *Matrix) *Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: linear expects %d inputs, got %d", l.In, x.Cols))
	}
	l.x = x
	out := MatMul(x, l.W)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += l.B[j]
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *Matrix) *Matrix {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	dW := MatMulATB(l.x, grad)
	for i := range dW.Data {
		l.dW.Data[i] += dW.Data[i]
	}
	for i := 0; i < grad.Rows; i++ {
		row := grad.Row(i)
		for j := range row {
			l.dB[j] += row[j]
		}
	}
	return MatMulABT(grad, l.W)
}

// Step implements Layer.
func (l *Linear) Step(lr float32) {
	for i := range l.W.Data {
		l.W.Data[i] -= lr * l.dW.Data[i]
		l.dW.Data[i] = 0
	}
	for j := range l.B {
		l.B[j] -= lr * l.dB[j]
		l.dB[j] = 0
	}
}

// ParamCount implements Layer.
func (l *Linear) ParamCount() int { return l.In*l.Out + l.Out }

// Gradients exposes the accumulated parameter gradients (for
// data-parallel all-reduce).
func (l *Linear) Gradients() (*Matrix, []float32) { return l.dW, l.dB }

// ReLU is the rectified-linear activation.
type ReLU struct {
	mask []bool
}

// Forward implements Layer.
func (r *ReLU) Forward(x *Matrix) *Matrix {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Matrix) *Matrix {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	out := grad.Clone()
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// Step implements Layer (no parameters).
func (r *ReLU) Step(float32) {}

// ParamCount implements Layer.
func (r *ReLU) ParamCount() int { return 0 }

// MLP is a feed-forward stack of layers.
type MLP struct {
	Layers []Layer
}

// NewMLP builds Linear+ReLU pairs for the given dims, e.g. dims
// [13,512,256] produces Linear(13,512)-ReLU-Linear(512,256)-ReLU. When
// finalActivation is false the last ReLU is omitted (for logit outputs).
func NewMLP(dims []int, finalActivation bool, rng *rand.Rand) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least two dims")
	}
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(dims[i], dims[i+1], rng))
		if i+2 < len(dims) || finalActivation {
			m.Layers = append(m.Layers, &ReLU{})
		}
	}
	return m
}

// Forward implements Layer.
func (m *MLP) Forward(x *Matrix) *Matrix {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (m *MLP) Backward(grad *Matrix) *Matrix {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// Step implements Layer.
func (m *MLP) Step(lr float32) {
	for _, l := range m.Layers {
		l.Step(lr)
	}
}

// ParamCount implements Layer.
func (m *MLP) ParamCount() int {
	n := 0
	for _, l := range m.Layers {
		n += l.ParamCount()
	}
	return n
}

// BCEWithLogits computes mean binary cross-entropy over logits and
// returns the loss and dL/dlogits. Labels must be 0 or 1.
func BCEWithLogits(logits *Matrix, labels []float32) (float32, *Matrix) {
	if logits.Cols != 1 || logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: BCE expects %d×1 logits for %d labels", len(labels), len(labels)))
	}
	grad := NewMatrix(logits.Rows, 1)
	var loss float64
	n := float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		z := float64(logits.At(i, 0))
		y := float64(labels[i])
		// Numerically stable: log(1+exp(-|z|)) + max(z,0) - z*y
		loss += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		p := 1 / (1 + math.Exp(-z))
		grad.Set(i, 0, float32((p-y)/n))
	}
	return float32(loss / n), grad
}
